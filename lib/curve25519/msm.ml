(* Multi-scalar multiplication: interleaved-wNAF Straus up to
   [straus_cutoff] terms, Pippenger's bucket method above it.

   Pippenger runs on signed digits: each scalar is recoded once into
   signed c-bit digits ([Point.Niels_store.signed_digits]), so a window
   keeps 2^(c−1) buckets and a negative digit adds the negated base with
   [Point.msub].  That halves the suffix sum of every window against
   unsigned digits at the same c.  The point set is split into
   per-domain chunks, each running the full windowed bucket accumulation
   independently; the partial sums combine in fixed chunk order, so the
   result is the same group element for every job count. *)

(* Σ_b b·bucket_b by suffix sums, top down over the buckets marked
   [used]: the buckets above the highest used one cost nothing *)
let bucket_sum buckets used =
  let running = ref None and total = ref None in
  for b = Array.length buckets - 1 downto 1 do
    (match (!running, used.(b)) with
    | None, true -> running := Some buckets.(b)
    | Some r, true -> running := Some (Point.add r buckets.(b))
    | _, false -> ());
    Option.iter (fun r -> total := Some (match !total with None -> r | Some t -> Point.add t r)) !running
  done;
  Option.value ~default:Point.identity !total

(* Window size by cost model.  A b-bit scalar takes ceil((b+1)/c) signed
   c-bit digits (the top digit keeps the recoding's carry), and each
   window of n points costs n madds into the buckets, the 2·2^(c−1)
   additions of the suffix sum and c doublings of the accumulator.  The
   unit costs are the fe-kernel rows of [bench group] for the earlier
   tagged-int field kernel (madd 630, add 875, double 770 ns); only their
   ratio matters.  The untagged-limb kernel's rows (about 370/470/335 ns)
   pick the same c up to n = 1024 and c = 9 at n = 3072, where c = 8
   timed as fast or faster, so the weights stay.  At n = 1024 and
   b = 253 the model picks c = 8 (128 buckets, 32 windows), where the
   old c = lg n − 1 unsigned rule took c = 9 (511 buckets, 29 windows)
   and paid as many suffix-sum additions as bucket madds. *)
let madd_ns = 630
let add_ns = 875
let double_ns = 770
let max_window = 16

let digit_count ~bits c = (bits + c) / c

let window_cost ~bits n c =
  digit_count ~bits c * ((n * madd_ns) + (2 * (1 lsl (c - 1)) * add_ns) + (c * double_ns))

let window_bits ~bits n =
  let best = ref 1 in
  for c = 2 to max_window do
    if window_cost ~bits n c < window_cost ~bits n !best then best := c
  done;
  !best

(* Bucket accumulation over the point range [lo, hi): [digits.(i).(w)] is
   the w-th signed c-bit digit of exponent i; [nls.(i)] the base in
   mixed-affine Niels form, so every bucket addition is a 7-mul madd (or
   msub) instead of a 9-mul extended addition.  The conversion happens
   once per MSM evaluation (one Montgomery inversion over all input
   points) before the chunks fan out — see [run]. *)
let run_range ~c ~nwindows ~lo ~hi ~digits ~nls =
  let nbuckets = 1 lsl (c - 1) in
  let buckets = Array.make (nbuckets + 1) Point.identity in
  let used = Array.make (nbuckets + 1) false in
  let acc = ref Point.identity in
  for w = nwindows - 1 downto 0 do
    if w < nwindows - 1 then for _ = 1 to c do acc := Point.double !acc done;
    Array.fill buckets 0 (nbuckets + 1) Point.identity;
    Array.fill used 0 (nbuckets + 1) false;
    for i = lo to hi - 1 do
      let d = digits.(i).(w) in
      if d > 0 then begin
        buckets.(d) <- Point.madd buckets.(d) nls.(i);
        used.(d) <- true
      end
      else if d < 0 then begin
        buckets.(-d) <- Point.msub buckets.(-d) nls.(i);
        used.(-d) <- true
      end
    done;
    acc := Point.add !acc (bucket_sum buckets used)
  done;
  !acc

(* Sequential cutoff: each chunk pays fixed costs that are independent of
   its point count — a full doubling chain across every window plus a
   suffix-sum pass over all 2^(c−1) buckets per window. Below ~1k points per
   chunk those fixed costs dominate the per-point bucket additions, so
   fanning out across domains is a net loss (BENCH_RISEFL.json showed
   msm-full at n=256 5x slower at jobs=2 than jobs=1). Capping the chunk
   count so every chunk keeps at least this many points makes small MSMs
   run sequentially at any job count. *)
let seq_cutoff = 1024

(* The window size is chosen from the per-chunk point count, not the
   total: each chunk runs its own bucket accumulation, so oversizing c
   from the global n would blow up the per-chunk suffix-sum cost. *)
let chunk_window ?jobs ~bits n =
  let nchunks = Parallel.chunk_count ?jobs ~min_chunk:seq_cutoff n in
  window_bits ~bits ((n + nchunks - 1) / nchunks)

let c_evals = Telemetry.Counter.make "msm.evals"
let c_points = Telemetry.Counter.make "msm.points"
let c_window = Telemetry.Counter.make "msm.window_bits"
let c_chunks = Telemetry.Counter.make "msm.chunks"

let run ?jobs ~c ~nwindows ~npoints ~digits ~points () =
  Telemetry.Counter.incr c_evals;
  Telemetry.Counter.add c_points npoints;
  Telemetry.Counter.add c_window c;
  (* batched-affine flush: one shared inversion converts every input to
     Niels form; each chunk then reads the (immutable) array freely *)
  let nls = Point.to_niels_batch points in
  let partials =
    Parallel.map_chunks ?jobs ~min_chunk:seq_cutoff ~n:npoints (fun lo hi ->
        run_range ~c ~nwindows ~lo ~hi ~digits ~nls)
  in
  Telemetry.Counter.add c_chunks (Array.length partials);
  if Array.length partials = 0 then Point.identity
  else Parallel.tree_combine Point.add partials

(* canonical scalars are below ℓ < 2^253 *)
let scalar_bits = 253

let pippenger ?jobs pairs =
  let n = Array.length pairs in
  if n = 0 then Point.identity
  else begin
    let c = chunk_window ?jobs ~bits:scalar_bits n in
    let nwindows = digit_count ~bits:scalar_bits c in
    let digits =
      Array.map
        (fun (s, _) ->
          Point.Niels_store.signed_digits ~bits:c (Scalar.to_digits ~bits:c ~count:nwindows s))
        pairs
    in
    run ?jobs ~c ~nwindows ~npoints:n ~digits ~points:(Array.map snd pairs) ()
  end

(* Interleaved-wNAF Straus: every scalar is recoded to width-5 wNAF
   (odd digits, |d| <= 15), every point gets its own odd-multiples table
   {P, 3P, ..., 15P}, and one doubling chain over the 256 digit positions
   is shared by all points, adding or subtracting a table entry wherever
   a digit is nonzero.  The n*8 table entries are flushed to Niels form
   through one shared inversion, so the ~n*256/6 additions are madds.
   Cost is ~256 doublings + ~51 additions per point with no per-window
   overhead, against Pippenger's ceil(256/c) windows that each pay a
   2^c-bucket suffix sum whatever n is; below [straus_cutoff] that fixed
   cost dominates.  Tables live for one call only (8 Niels entries per
   point), so the heap cost is bounded by the cutoff.  Zero scalars are
   dropped before any table is built. *)
let straus pairs =
  let n = Array.length pairs in
  Telemetry.Counter.incr c_evals;
  Telemetry.Counter.add c_points n;
  Telemetry.Counter.add c_window Scalar.wnaf_window;
  Telemetry.Counter.incr c_chunks;
  let live = Array.of_list (List.filter (fun (s, _) -> not (Scalar.is_zero s)) (Array.to_list pairs)) in
  let m = Array.length live in
  if m = 0 then Point.identity
  else begin
    let digits = Array.map (fun (s, _) -> Scalar.to_wnaf s) live in
    let tbl = Point.to_niels_batch (Array.concat (List.map (fun (_, p) -> Point.odd_multiples p) (Array.to_list live))) in
    let top = ref 255 in
    while !top > 0 && Array.for_all (fun ds -> ds.(!top) = 0) digits do
      decr top
    done;
    let acc = ref Point.identity in
    for i = !top downto 0 do
      if i < !top then acc := Point.double !acc;
      for j = 0 to m - 1 do
        let d = digits.(j).(i) in
        if d > 0 then acc := Point.madd !acc tbl.((8 * j) + ((d - 1) / 2))
        else if d < 0 then acc := Point.msub !acc tbl.((8 * j) + ((-d - 1) / 2))
      done
    done;
    !acc
  end

(* Straus/Pippenger crossover, like [seq_cutoff] a property of the group
   layer rather than of any caller.  Sweeping both strategies at jobs=1
   against the signed-digit Pippenger (the msm-crossover rows of [bench
   group], best of 3, one x86-64 core) gave Pippenger/Straus time ratios
   of 2.5 at 3 points, 1.6 at 16, 1.2 at 32, 1.1 at 48, 0.98 at 65, 0.85
   at 100, 0.58 at 200 and 0.5-0.6 from 385 on: parity sits between 48
   and 65 points.  Its small-MSM callers are the Σ-protocol and Vsss
   checks and the naive range-proof and IPA verifiers; the server's
   block sums (~100 wire and non-generator terms per client at k = 2)
   run on Pippenger. *)
let straus_cutoff = 64

let msm ?jobs pairs =
  if Array.length pairs <= straus_cutoff then straus pairs else pippenger ?jobs pairs

let msm_small ?jobs pairs =
  let n = Array.length pairs in
  if n = 0 then Point.identity
  else begin
    if Array.exists (fun (e, _) -> e = min_int) pairs then invalid_arg "Msm.msm_small: exponent out of range";
    let maxe = Array.fold_left (fun m (e, _) -> Stdlib.max m (abs e)) 0 pairs in
    let rec lg acc v = if v = 0 then acc else lg (acc + 1) (v lsr 1) in
    let bits = Stdlib.max 1 (lg 0 maxe) in
    let c = chunk_window ?jobs ~bits n in
    let nwindows = digit_count ~bits c in
    let mask = (1 lsl c) - 1 in
    (* |e| is recoded and a negative exponent negates its digits *)
    let digits =
      Array.map
        (fun (e, _) ->
          let ds =
            Point.Niels_store.signed_digits ~bits:c (Array.init nwindows (fun w -> (abs e lsr (w * c)) land mask))
          in
          if e < 0 then Array.map Int.neg ds else ds)
        pairs
    in
    run ?jobs ~c ~nwindows ~npoints:n ~digits ~points:(Array.map snd pairs) ()
  end

(* Fixed-base tables for many bases whose MSMs run again and again (the
   Bulletproofs generators).  Entry w of base P is 2^{8w}·P, w < 32, in
   a [Point.Niels_store], so a scalar's signed 8-bit digits d_w
   (|d_w| <= 128, an exact recoding of the canonical value) turn
   Σ s_i·P_i into one bucket sum Σ d·T over 32 terms per base: no
   doublings at evaluation time, ~32 madds per term plus at most 2·128
   additions for the reduction. *)
module Fixed = struct
  module Store = Point.Niels_store

  let windows = 32
  let buckets = 128

  type t = Store.t

  let length = Store.count

  (* 2^{8w}·p for w < windows, in extended coordinates *)
  let entries_of p =
    let e = Array.make windows p in
    for w = 1 to windows - 1 do
      let q = ref e.(w - 1) in
      for _ = 1 to 8 do
        q := Point.double !q
      done;
      e.(w) <- !q
    done;
    e

  let make ps = Store.build ~span:"msm.fixed.build" ~entries:windows entries_of ps

  (* One pass adds ±2^{8w}·P into bucket |d| for every nonzero digit,
     then Σ_b b·bucket_b by suffix sums, skipping the leading empty
     buckets.  The bucket array is written by every madd, so each minor
     collection during the pass promotes its points: a variant that
     sorted the digits by bucket and kept its sums in locals promoted
     ~19 k words per range proof at nt = 64 against this pass's ~243 k,
     and on the crowd workload the major GC, which OCaml paces by
     promoted words, then let the other stages' garbage float longer
     (peak_heap_mb +22% over 10 pairs).  A scalar is < 2^253, so the top
     digit is at most 17 and never carries out. *)
  let msm t terms =
    Telemetry.Counter.incr c_evals;
    Telemetry.Counter.add c_points (Array.length terms);
    let bucket = Array.make (buckets + 1) Point.identity in
    let used = Array.make (buckets + 1) false in
    let nl = Store.scratch () in
    Array.iter
      (fun (s, l) ->
        if l < 0 || l >= length t then invalid_arg "Msm.Fixed.msm: base index out of range";
        let ds = Store.signed_digits ~bits:8 (Scalar.to_digits ~bits:8 ~count:windows s) in
        for w = 0 to windows - 1 do
          let d = ds.(w) in
          if d <> 0 then begin
            Store.load t l w nl;
            let b = abs d in
            bucket.(b) <- (if d > 0 then Point.madd bucket.(b) nl else Point.msub bucket.(b) nl);
            used.(b) <- true
          end
        done)
      terms;
    bucket_sum bucket used
end

(* Growable (scalar, point) term accumulator for random-linear-combination
   batch verification: every verifier equation LHS = RHS contributes the
   terms of rho * (LHS - RHS); the whole batch is accepted iff the single
   evaluated sum is the group identity.

   Bases listed in [coalesce] are matched by physical equality on push and
   their coefficients are summed into one cell each, so ubiquitous fixed
   bases (the Pedersen g and blinding base q appear in nearly every
   equation) cost one MSM term instead of dozens. *)
module Acc = struct
  type t = {
    mutable scalars : Scalar.t array;
    mutable points : Point.t array;
    mutable n : int;
    cbases : Point.t array;
    csums : Scalar.t array;
  }

  let create ?(coalesce = [||]) () =
    {
      scalars = Array.make 64 Scalar.zero;
      points = Array.make 64 Point.identity;
      n = 0;
      cbases = coalesce;
      csums = Array.make (Array.length coalesce) Scalar.zero;
    }

  let push t s p =
    let nc = Array.length t.cbases in
    let rec find i = if i = nc then -1 else if t.cbases.(i) == p then i else find (i + 1) in
    let ci = find 0 in
    if ci >= 0 then t.csums.(ci) <- Scalar.add t.csums.(ci) s
    else begin
      let cap = Array.length t.scalars in
      if t.n = cap then begin
        let scalars = Array.make (2 * cap) Scalar.zero in
        let points = Array.make (2 * cap) Point.identity in
        Array.blit t.scalars 0 scalars 0 cap;
        Array.blit t.points 0 points 0 cap;
        t.scalars <- scalars;
        t.points <- points
      end;
      t.scalars.(t.n) <- s;
      t.points.(t.n) <- p;
      t.n <- t.n + 1
    end

  let terms t =
    let extra = ref [] in
    Array.iteri
      (fun i s -> if not (Scalar.is_zero s) then extra := (s, t.cbases.(i)) :: !extra)
      t.csums;
    Array.append (Array.init t.n (fun i -> (t.scalars.(i), t.points.(i)))) (Array.of_list !extra)
end
