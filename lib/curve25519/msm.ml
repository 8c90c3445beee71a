(* Multi-scalar multiplication: interleaved-wNAF Straus up to
   [straus_cutoff] terms, Pippenger's bucket method above it.

   Two optimizations of Pippenger over the textbook loop:

   - each scalar's little-endian c-bit digit array is extracted once up
     front with [Bigint.to_digits] (one limb pass per scalar) instead of
     re-probing [Bigint.testbit] c times per point per window — a pure
     win even sequentially;

   - the point set is split into per-domain chunks, each chunk runs the
     full windowed bucket accumulation independently, and the partial
     sums are merged with log(chunks) point additions. Partials combine
     in fixed chunk order, so the result is the same group element for
     every job count. *)

let window_bits n =
  if n <= 1 then 1
  else begin
    (* c ~ log2 n - 2, clamped; standard heuristic minimizing
       (b/c) * (n + 2^c) additions *)
    let rec lg acc v = if v <= 1 then acc else lg (acc + 1) (v lsr 1) in
    Stdlib.max 1 (Stdlib.min 16 (lg 0 n - 1))
  end

(* Bucket accumulation over the point range [lo, hi): [digits.(i).(w)] is
   the w-th c-bit digit of exponent i; [nls.(i)] the (sign-adjusted) base
   in mixed-affine Niels form, so every bucket addition is a 7-mul madd
   instead of a 9-mul extended addition.  The conversion happens once per
   MSM evaluation (one Montgomery inversion over all input points) before
   the chunks fan out — see [run]. *)
let run_range ~c ~nwindows ~lo ~hi ~digits ~nls =
  let nbuckets = (1 lsl c) - 1 in
  let buckets = Array.make (nbuckets + 1) Point.identity in
  let acc = ref Point.identity in
  for w = nwindows - 1 downto 0 do
    if w < nwindows - 1 then for _ = 1 to c do acc := Point.double !acc done;
    Array.fill buckets 0 (nbuckets + 1) Point.identity;
    let used = ref false in
    for i = lo to hi - 1 do
      let d = digits.(i).(w) in
      if d <> 0 then begin
        buckets.(d) <- Point.madd buckets.(d) nls.(i);
        used := true
      end
    done;
    if !used then begin
      (* sum_{d} d * bucket_d via suffix sums *)
      let running = ref Point.identity in
      let total = ref Point.identity in
      for d = nbuckets downto 1 do
        running := Point.add !running buckets.(d);
        total := Point.add !total !running
      done;
      acc := Point.add !acc !total
    end
  done;
  !acc

(* Sequential cutoff: each chunk pays fixed costs that are independent of
   its point count — a full doubling chain across every window plus a
   suffix-sum pass over all 2^c buckets per window. Below ~1k points per
   chunk those fixed costs dominate the per-point bucket additions, so
   fanning out across domains is a net loss (BENCH_RISEFL.json showed
   msm-full at n=256 5x slower at jobs=2 than jobs=1). Capping the chunk
   count so every chunk keeps at least this many points makes small MSMs
   run sequentially at any job count. *)
let seq_cutoff = 1024

(* The window size is chosen from the per-chunk point count, not the
   total: each chunk runs its own bucket accumulation, so oversizing c
   from the global n would blow up the per-chunk suffix-sum cost. *)
let chunk_window ?jobs n =
  let nchunks = Parallel.chunk_count ?jobs ~min_chunk:seq_cutoff n in
  window_bits ((n + nchunks - 1) / nchunks)

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

let pippenger ?jobs pairs =
  let n = Array.length pairs in
  if n = 0 then Point.identity
  else begin
    let c = chunk_window ?jobs n in
    let nwindows = (256 + c - 1) / c in
    let digits =
      Array.map (fun (s, _) -> Bigint.to_digits ~bits:c ~count:nwindows (Scalar.to_bigint s)) pairs
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
   (the msm-crossover rows of [bench group], one core of an x86-64 Xeon)
   gave Pippenger/Straus time ratios of ~3.3 at 3 points, ~1.5 at 65,
   1.2-1.9 at 129, 1.0-1.1 at 193, 1.1-1.2 at 257 and 0.8-0.9 from 385
   on: the crossover sits around 300 points.  256 keeps every size that
   runs Straus at or above parity.  Its small-MSM callers are now the
   Σ-protocol and Vsss checks, the naive range-proof and IPA verifiers,
   the fold prover's later rounds above [Ipa.table_cutoff] and the
   server's block sums over few clients, whose terms are now only the
   wire points and the bases outside the generator tables (~100 per
   client at k = 2).  The range prover's S commitment and IPA cross
   terms up to that cutoff, and the block sums' summed generator
   coefficients, run on [Fixed] tables instead. *)
let straus_cutoff = 256

let msm ?jobs pairs =
  if Array.length pairs <= straus_cutoff then straus pairs else pippenger ?jobs pairs

let msm_small ?jobs pairs =
  let n = Array.length pairs in
  if n = 0 then Point.identity
  else begin
    let c = chunk_window ?jobs n in
    (* sign-fold: negative exponents negate the base *)
    let exps = Array.map (fun (e, _) -> abs e) pairs in
    let pts = Array.map (fun (e, p) -> if e < 0 then Point.neg p else p) pairs in
    let maxe = Array.fold_left Stdlib.max 0 exps in
    let rec lg acc v = if v = 0 then acc else lg (acc + 1) (v lsr 1) in
    let bits = Stdlib.max 1 (lg 0 maxe) in
    let nwindows = (bits + c - 1) / c in
    let mask = (1 lsl c) - 1 in
    let digits =
      Array.map (fun e -> Array.init nwindows (fun w -> (e lsr (w * c)) land mask)) exps
    in
    run ?jobs ~c ~nwindows ~npoints:n ~digits ~points:pts ()
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
    Array.iter
      (fun (s, l) ->
        if l < 0 || l >= length t then invalid_arg "Msm.Fixed.msm: base index out of range";
        let ds = Store.signed_digits ~bits:8 (Bigint.to_digits ~bits:8 ~count:windows (Scalar.to_bigint s)) in
        for w = 0 to windows - 1 do
          let d = ds.(w) in
          if d <> 0 then begin
            let nl = Store.entry t l w in
            let b = abs d in
            bucket.(b) <- (if d > 0 then Point.madd bucket.(b) nl else Point.msub bucket.(b) nl);
            used.(b) <- true
          end
        done)
      terms;
    let running = ref None and total = ref Point.identity in
    for b = buckets downto 1 do
      (match (!running, used.(b)) with
      | None, true -> running := Some bucket.(b)
      | Some r, true -> running := Some (Point.add r bucket.(b))
      | _, false -> ());
      Option.iter (fun r -> total := Point.add !total r) !running
    done;
    !total
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
