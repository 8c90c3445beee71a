(* BSGS over the range [-max_abs, max_abs].

   We shift: y = p + max_abs*base has exponent x' = x + max_abs in
   [0, 2*max_abs].  Write x' = i*m + j with m ~ sqrt(range) (scalable via
   ?m_scale, the time/memory knob); the baby table maps
   compress(j*base) -> j and giant steps walk the i axis.

   Two speed structures matter here:

   - Point compression needs a field inversion, which dominates a naive
     loop; table construction and multi-target solving both use
     Montgomery-batched compression, chunked over the Parallel pool
     (batch inverses are exact, so the probe keys — and therefore the
     results — are identical at every job count).

   - Giant steps are ordered center-out instead of bottom-up.  The
     aggregation targets are sums of n bounded updates centered on zero,
     so x' concentrates around max_abs; probing i0 = max_abs/m first and
     expanding outward (an up frontier adding -m*base, a down frontier
     adding +m*base) finds typical targets in O(|x|/m) steps instead of
     ~max_abs/m.  Each hit determines x' uniquely (all candidate values
     are distinct mod the group order), so the probe order cannot change
     any answer — only when it is found. *)

type t = {
  max_abs : int;
  m : int;
  steps : int; (* number of giant-step indices i in [0, steps) *)
  i0 : int; (* center start index = max_abs / m *)
  baby : (string, int) Hashtbl.t;
  keys : string array; (* baby keys in j order, for serialization *)
  giant_neg : Point.t; (* -m * base *)
  giant_pos : Point.t; (* m * base *)
  center_up : Point.t; (* (max_abs - i0*m) * base: offset making a target's
                           up-frontier start equal its i0 probe point *)
  center_down : Point.t; (* (max_abs - (i0-1)*m) * base *)
}

let c_baby = Telemetry.Counter.make "dlog.baby_entries"
let c_giant = Telemetry.Counter.make "dlog.giant_steps"
let c_probes = Telemetry.Counter.make "dlog.probes"

(* chunks below this see per-chunk batch-inversion overhead dominate *)
let probe_min_chunk = 256

let max_abs t = t.max_abs
let table_size t = t.m

let of_parts ~base ~max_abs ~m keys =
  let range = (2 * max_abs) + 1 in
  let steps = ((range - 1) / m) + 1 in
  let i0 = max_abs / m in
  let baby = Hashtbl.create (2 * m) in
  Array.iteri
    (fun j key ->
      (* first writer wins so j=0 (identity) stays 0 *)
      if not (Hashtbl.mem baby key) then Hashtbl.add baby key j)
    keys;
  let giant_pos = Point.mul_small m base in
  {
    max_abs;
    m;
    steps;
    i0;
    baby;
    keys;
    giant_neg = Point.neg giant_pos;
    giant_pos;
    center_up = Point.mul_small (max_abs - (i0 * m)) base;
    center_down = Point.mul_small (max_abs - ((i0 - 1) * m)) base;
  }

let create ?jobs ?(m_scale = 1.0) ~base ~max_abs () =
  if max_abs < 0 then invalid_arg "Dlog.create";
  (* build time is a span, not a counter: counters must be jobs-invariant *)
  Telemetry.Span.with_ "dlog.build" @@ fun () ->
  let range = (2 * max_abs) + 1 in
  let m = int_of_float (ceil (sqrt (float_of_int range) *. m_scale)) in
  let m = Stdlib.max 1 (Stdlib.min m range) in
  (* chunked table build: each chunk seeds j_lo * base with one short
     multiplication, walks forward by additions, and compresses with its
     own Montgomery batch — deterministic bytes at every job count *)
  let chunks =
    Parallel.map_chunks ?jobs ~min_chunk:probe_min_chunk ~n:m (fun lo hi ->
        let points = Array.make (hi - lo) Point.identity in
        let acc = ref (Point.mul_small lo base) in
        for j = lo to hi - 1 do
          points.(j - lo) <- !acc;
          if j < hi - 1 then acc := Point.add !acc base
        done;
        Point.compress_batch points)
  in
  let keys =
    Array.concat (Array.to_list chunks)
    |> Array.map Bytes.unsafe_to_string (* fresh buffers, never mutated *)
  in
  Telemetry.Counter.add c_baby m;
  of_parts ~base ~max_abs ~m keys

let solve_many ?jobs t targets =
  let n = Array.length targets in
  if n = 0 then [||]
  else begin
    let imax = t.steps - 1 in
    (* per-target probe frontiers: up walks i = i0, i0+1, ...; down walks
       i = i0-1, i0-2, ... — probe point for step i is target + (max_abs
       - i*m) * base *)
    let up = Array.map (fun p -> Point.add p t.center_up) targets in
    let down =
      if t.i0 >= 1 then Array.map (fun p -> Point.add p t.center_down) targets else [||]
    in
    let result = Array.make n None in
    let unsolved = Array.init n Fun.id in
    let cnt = ref n in
    let r = ref 0 in
    while !cnt > 0 && (t.i0 + !r <= imax || t.i0 - 1 - !r >= 0) do
      let iu = t.i0 + !r and id = t.i0 - 1 - !r in
      let has_up = iu <= imax and has_down = id >= 0 in
      Telemetry.Counter.incr c_giant;
      let stride = (if has_up then 1 else 0) + (if has_down then 1 else 0) in
      let live = !cnt in
      (* parallel pass: emit this round's probe points and advance the
         frontiers; per-chunk Montgomery-batched compression.  Writes to
         up/down hit disjoint indices, and compression is exact, so the
         key bytes are jobs-invariant. *)
      let chunks =
        Parallel.map_chunks ?jobs ~min_chunk:probe_min_chunk ~n:live (fun lo hi ->
            let len = hi - lo in
            let pts = Array.make (len * stride) Point.identity in
            for k = 0 to len - 1 do
              let i = unsolved.(lo + k) in
              let o = ref (k * stride) in
              if has_up then begin
                pts.(!o) <- up.(i);
                up.(i) <- Point.add up.(i) t.giant_neg;
                incr o
              end;
              if has_down then begin
                pts.(!o) <- down.(i);
                down.(i) <- Point.add down.(i) t.giant_pos
              end
            done;
            Point.compress_batch pts)
      in
      let keys = if Array.length chunks = 1 then chunks.(0) else Array.concat (Array.to_list chunks) in
      Telemetry.Counter.add c_probes (Array.length keys);
      (* probe sequentially (hash lookups are cheap) and compact the
         unsolved set in place *)
      let w = ref 0 in
      for pos = 0 to live - 1 do
        let i = unsolved.(pos) in
        let o = pos * stride in
        let hit = ref false in
        if has_up then begin
          match Hashtbl.find_opt t.baby (Bytes.unsafe_to_string keys.(o)) with
          | Some j ->
              (* the exponent is determined exactly by the hit; out-of-range
                 means no in-range solution exists for this target *)
              let x' = (iu * t.m) + j in
              if x' <= 2 * t.max_abs then result.(i) <- Some (x' - t.max_abs);
              hit := true
          | None -> ()
        end;
        if (not !hit) && has_down then begin
          match
            Hashtbl.find_opt t.baby
              (Bytes.unsafe_to_string keys.(o + if has_up then 1 else 0))
          with
          | Some j ->
              let x' = (id * t.m) + j in
              if x' <= 2 * t.max_abs then result.(i) <- Some (x' - t.max_abs);
              hit := true
          | None -> ()
        end;
        if not !hit then begin
          unsolved.(!w) <- i;
          incr w
        end
      done;
      cnt := !w;
      incr r
    done;
    result
  end

let solve t p = (solve_many t [| p |]).(0)

let solve_exn t p =
  match solve t p with
  | Some x -> x
  | None -> raise Not_found

(* --- serialization (for the persistent table cache) ---

   Layout: "RDL2" | u32 max_abs | u32 m (little-endian), then the m baby
   keys (32-byte compressed points) in j order.  Everything else in [t]
   is recomputed from [base] in O(log max_abs) group operations, so a
   cache hit skips all m baby additions and compressions.  Integrity
   (CRC) and keying live in the cache layer; [of_bytes] validates the
   structure plus the j=0 key (the identity's compression). *)

let magic = "RDL2"

let put_u32 buf off v =
  for i = 0 to 3 do
    Bytes.set buf (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u32 buf off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get buf (off + i))
  done;
  !v

let to_bytes t =
  let buf = Bytes.make (12 + (32 * t.m)) '\000' in
  Bytes.blit_string magic 0 buf 0 4;
  put_u32 buf 4 t.max_abs;
  put_u32 buf 8 t.m;
  Array.iteri (fun j key -> Bytes.blit_string key 0 buf (12 + (32 * j)) 32) t.keys;
  buf

let of_bytes ~base b =
  if Bytes.length b < 12 then None
  else if not (String.equal (Bytes.sub_string b 0 4) magic) then None
  else begin
    let max_abs = get_u32 b 4 in
    let m = get_u32 b 8 in
    let range = (2 * max_abs) + 1 in
    if m < 1 || m > range || Bytes.length b <> 12 + (32 * m) then None
    else begin
      let keys = Array.init m (fun j -> Bytes.sub_string b (12 + (32 * j)) 32) in
      if not (String.equal keys.(0) (Bytes.to_string (Point.compress Point.identity))) then None
      else Some (of_parts ~base ~max_abs ~m keys)
    end
  end
