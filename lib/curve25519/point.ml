(* Ed25519 group operations in extended homogeneous coordinates,
   following the RFC 8032 formulas (complete for a = -1). *)

type t = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

let identity = { x = Fe.zero; y = Fe.one; z = Fe.one; t = Fe.zero }

let c_add = Telemetry.Counter.make "point.add"
let c_double = Telemetry.Counter.make "point.double"
let c_scalarmul = Telemetry.Counter.make "point.scalarmul"

let add p q =
  Telemetry.Counter.incr c_add;
  let a = Fe.mul (Fe.sub p.y p.x) (Fe.sub q.y q.x) in
  let b = Fe.mul (Fe.add p.y p.x) (Fe.add q.y q.x) in
  let c = Fe.mul (Fe.mul p.t Fe.edwards_d2) q.t in
  let d = Fe.mul (Fe.add p.z p.z) q.z in
  let e = Fe.sub b a in
  let f = Fe.sub d c in
  let g = Fe.add d c in
  let h = Fe.add b a in
  { x = Fe.mul e f; y = Fe.mul g h; z = Fe.mul f g; t = Fe.mul e h }

let double p =
  Telemetry.Counter.incr c_double;
  let a = Fe.square p.x in
  let b = Fe.square p.y in
  let c = Fe.mul_small (Fe.square p.z) 2 in
  let h = Fe.add a b in
  let e = Fe.sub h (Fe.square (Fe.add p.x p.y)) in
  let g = Fe.sub a b in
  let f = Fe.add c g in
  { x = Fe.mul e f; y = Fe.mul g h; z = Fe.mul f g; t = Fe.mul e h }

let neg p = { p with x = Fe.neg p.x; t = Fe.neg p.t }
let sub p q = add p (neg q)

(* --- mixed-affine ("Niels") form ---

   A point with z = 1 stored as (y+x, y−x, 2d·t).  Adding such a point to
   an extended point costs 7 field muls instead of 9 (the z-product and
   the d2 scaling are pre-absorbed), which is where the batched-affine
   Pippenger win comes from: all MSM inputs and all fixed-base table
   entries are flushed to this form through one Montgomery inversion
   pass, and every bucket/table addition thereafter is a cheap madd. *)

type niels = { yplusx : Fe.t; yminusx : Fe.t; td2 : Fe.t }

let c_madd = Telemetry.Counter.make "point.madd"
let c_niels_batches = Telemetry.Counter.make "point.niels.batches"
let c_niels_points = Telemetry.Counter.make "point.niels.points"

(* madd: same complete a=-1 formulas as [add] specialized to q.z = 1,
   with q's (y±x) and 2d·t precomputed — bit-for-bit the same group
   element as [add p q]. Counted under point.add (it is one) and
   point.madd (for the fast-path breakdown). *)
let madd p n =
  Telemetry.Counter.incr c_add;
  Telemetry.Counter.incr c_madd;
  let a = Fe.mul (Fe.sub p.y p.x) n.yminusx in
  let b = Fe.mul (Fe.add p.y p.x) n.yplusx in
  let c = Fe.mul p.t n.td2 in
  let d = Fe.add p.z p.z in
  let e = Fe.sub b a in
  let f = Fe.sub d c in
  let g = Fe.add d c in
  let h = Fe.add b a in
  { x = Fe.mul e f; y = Fe.mul g h; z = Fe.mul f g; t = Fe.mul e h }

(* madd of the negated entry: y±x swap roles and the 2d·t product
   changes sign, so f and g trade the sign of c *)
let msub p n =
  Telemetry.Counter.incr c_add;
  Telemetry.Counter.incr c_madd;
  let a = Fe.mul (Fe.sub p.y p.x) n.yplusx in
  let b = Fe.mul (Fe.add p.y p.x) n.yminusx in
  let c = Fe.mul p.t n.td2 in
  let d = Fe.add p.z p.z in
  let e = Fe.sub b a in
  let f = Fe.add d c in
  let g = Fe.sub d c in
  let h = Fe.add b a in
  { x = Fe.mul e f; y = Fe.mul g h; z = Fe.mul f g; t = Fe.mul e h }

let to_niels_batch ps =
  Telemetry.Counter.incr c_niels_batches;
  Telemetry.Counter.add c_niels_points (Array.length ps);
  let zinvs = Fe.invert_batch (Array.map (fun p -> p.z) ps) in
  Array.mapi
    (fun i p ->
      let x = Fe.mul p.x zinvs.(i) in
      let y = Fe.mul p.y zinvs.(i) in
      { yplusx = Fe.add y x; yminusx = Fe.sub y x; td2 = Fe.mul (Fe.mul x y) Fe.edwards_d2 })
    ps

let equal p q =
  (* x1/z1 = x2/z2 and y1/z1 = y2/z2 *)
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z) && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

let is_identity p = Fe.is_zero p.x && Fe.equal p.y p.z

(* --- compression --- *)

let compress p =
  let zinv = Fe.invert p.z in
  let x = Fe.mul p.x zinv in
  let y = Fe.mul p.y zinv in
  let b = Fe.to_bytes y in
  if Fe.is_negative x then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  b

let compress_batch ps =
  let zinvs = Fe.invert_batch (Array.map (fun p -> p.z) ps) in
  Array.mapi
    (fun i p ->
      let x = Fe.mul p.x zinvs.(i) in
      let y = Fe.mul p.y zinvs.(i) in
      let b = Fe.to_bytes y in
      if Fe.is_negative x then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
      b)
    ps

let to_affine p =
  let zinv = Fe.invert p.z in
  (Fe.mul p.x zinv, Fe.mul p.y zinv)

(* Recover x from y: x^2 = (y^2 - 1) / (d y^2 + 1).  RFC 8032 §5.1.3. *)
let recover_x y sign =
  let y2 = Fe.square y in
  let u = Fe.sub y2 Fe.one in
  let v = Fe.add (Fe.mul Fe.edwards_d y2) Fe.one in
  (* candidate root: x = u v^3 (u v^7)^((p-5)/8) *)
  let v3 = Fe.mul (Fe.square v) v in
  let v7 = Fe.mul (Fe.square v3) v in
  let x = Fe.mul (Fe.mul u v3) (Fe.pow_p58 (Fe.mul u v7)) in
  let vx2 = Fe.mul v (Fe.square x) in
  let x =
    if Fe.equal vx2 u then Some x
    else if Fe.equal vx2 (Fe.neg u) then Some (Fe.mul x Fe.sqrt_m1)
    else None
  in
  match x with
  | None -> None
  | Some x ->
      if Fe.is_zero x && sign then None (* -0 is invalid *)
      else Some (if Fe.is_negative x <> sign then Fe.neg x else x)

let decompress_unchecked b =
  if Bytes.length b <> 32 then None
  else begin
    let sign = Char.code (Bytes.get b 31) land 0x80 <> 0 in
    let yb = Bytes.copy b in
    Bytes.set yb 31 (Char.chr (Char.code (Bytes.get yb 31) land 0x7f));
    let y = Fe.of_bytes yb in
    (* reject non-canonical y (>= p) *)
    if not (Bytes.equal (Fe.to_bytes y) yb) then None
    else
      match recover_x y sign with
      | None -> None
      | Some x -> Some { x; y; z = Fe.one; t = Fe.mul x y }
  end

(* --- scalar multiplication --- *)

(* Variable-base multiplication uses sliding-window wNAF recoding
   (Scalar.to_wnaf): digits are zero or odd with |d| <= 15, so the
   precompute is the 8 odd multiples {P, 3P, ..., 15P} and the main loop
   averages one addition per ~5 doublings — about 2/3 the additions of
   the old 4-bit unsigned windows with half the table build.  Everything
   is vartime; this is a research prototype, not a signing library. *)

let mul_digits digits table_p =
  (* digits little-endian; process from the top *)
  let acc = ref identity in
  for i = Array.length digits - 1 downto 0 do
    if i < Array.length digits - 1 then begin
      acc := double !acc;
      acc := double !acc;
      acc := double !acc;
      acc := double !acc
    end;
    let d = digits.(i) in
    if d <> 0 then acc := add !acc table_p.(d)
  done;
  !acc

let small_table p =
  let tbl = Array.make 16 identity in
  tbl.(1) <- p;
  for i = 2 to 15 do
    tbl.(i) <- add tbl.(i - 1) p
  done;
  tbl

(* odd multiples [| P; 3P; 5P; ...; 15P |]: digit d indexes (|d|-1)/2 *)
let odd_multiples p =
  let tbl = Array.make 8 p in
  let p2 = double p in
  for i = 1 to 7 do
    tbl.(i) <- add tbl.(i - 1) p2
  done;
  tbl

let c_wnaf_width = Telemetry.Counter.make "point.wnaf.width"

let mul s p =
  Telemetry.Counter.incr c_scalarmul;
  Telemetry.Counter.add c_wnaf_width Scalar.wnaf_window;
  let digits = Scalar.to_wnaf s in
  let top = ref (Array.length digits - 1) in
  while !top >= 0 && digits.(!top) = 0 do
    decr top
  done;
  if !top < 0 then identity
  else begin
    let tbl = odd_multiples p in
    let d0 = digits.(!top) in
    let acc = ref (if d0 > 0 then tbl.((d0 - 1) / 2) else neg tbl.(((-d0) - 1) / 2)) in
    for i = !top - 1 downto 0 do
      acc := double !acc;
      let d = digits.(i) in
      if d > 0 then acc := add !acc tbl.((d - 1) / 2)
      else if d < 0 then acc := sub !acc tbl.(((-d) - 1) / 2)
    done;
    !acc
  end

let mul_small n p =
  Telemetry.Counter.incr c_scalarmul;
  if n = 0 then identity
  else begin
    let p = if n < 0 then neg p else p in
    let n = abs n in
    let tbl = small_table p in
    let nbits =
      let rec w acc v = if v = 0 then acc else w (acc + 1) (v lsr 1) in
      w 0 n
    in
    let digits = Array.init ((nbits + 3) / 4) (fun i -> (n lsr (4 * i)) land 0xf) in
    mul_digits digits tbl
  end

(* --- fixed-base tables ---

   Every fixed-base table is a [Niels_store]: a fixed number of Niels
   entries per base, held in one Bigarray of limbs rather than on the
   OCaml heap (a few MB of long-lived tables would otherwise inflate the
   major heap the GC scans and sizes).  Entry 0 of every base is the base
   itself.  One build, one entry loader, one signed-digit recoding and
   one serializer serve the three multiplication loops, one per shape:
   [Table] (one base, many scalars), [Comb] (many bases, one scalar) and
   [Msm.Fixed] (many bases, many scalars, summed). *)

module Niels_store = struct
  type t = { buf : Fe.buf; count : int; entries : int }

  let entry_limbs = 3 * Fe.limbs

  let count t = t.count

  let create ~count ~entries =
    { buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (count * entries * entry_limbs); count; entries }

  let offset t l e = ((l * t.entries) + e) * entry_limbs

  (* the multiplication loops read every entry into one scratch Niels
     per loop (or per parallel task), refilled in place: a madd reads
     its operand and keeps none of it *)
  let scratch () = { yplusx = Fe.scratch (); yminusx = Fe.scratch (); td2 = Fe.scratch () }

  (* checked, so no index reaches the unchecked [Fe.load_into] out of range *)
  let load t l e n =
    if l < 0 || l >= t.count || e < 0 || e >= t.entries then invalid_arg "Point.Niels_store.entry";
    let o = offset t l e in
    Fe.load_into t.buf o n.yplusx;
    Fe.load_into t.buf (o + Fe.limbs) n.yminusx;
    Fe.load_into t.buf (o + (2 * Fe.limbs)) n.td2

  let entry t l e =
    let n = scratch () in
    load t l e n;
    n

  let set t l e n =
    let o = offset t l e in
    Fe.store t.buf o n.yplusx;
    Fe.store t.buf (o + Fe.limbs) n.yminusx;
    Fe.store t.buf (o + (2 * Fe.limbs)) n.td2

  (* bases per Montgomery-inversion batch: small, so the transient
     extended points never leave the minor heap in bulk.  Blocks sit at
     fixed offsets, so the batch counters do not depend on the job count,
     and a build of one block runs inline *)
  let block = 16

  let build ~span ~entries entries_of ps =
    Telemetry.Span.with_ span @@ fun () ->
    let t = create ~count:(Array.length ps) ~entries in
    Parallel.parallel_for ~lo:0 ~hi:((t.count + block - 1) / block) (fun blo bhi ->
        for b = blo to bhi - 1 do
          let l0 = b * block in
          let n = Stdlib.min block (t.count - l0) in
          let ext = Array.concat (List.init n (fun i -> entries_of ps.(l0 + i))) in
          if Array.length ext <> n * entries then invalid_arg "Point.Niels_store.build: entry count";
          Array.iteri (fun i nl -> set t (l0 + (i / entries)) (i mod entries) nl) (to_niels_batch ext)
        done);
    t

  (* in place: unsigned [bits]-bit digits (little-endian) become signed
     ones in [-2^(bits-1), 2^(bits-1)) of the same value, by carrying into
     the next digit.  The top digit keeps its carry and may reach
     2^(bits-1), which every loop has an entry or bucket for, so a value
     of b bits needs only ceil((b+1)/bits) digits; past 2^(bits-1) it
     would carry out *)
  let signed_digits ~bits ds =
    let half = 1 lsl (bits - 1) and top = Array.length ds - 1 in
    let carry = ref 0 in
    Array.iteri
      (fun w d ->
        let d = d + !carry in
        carry := if d > half || (d = half && w < top) then 1 else 0;
        ds.(w) <- d - (!carry lsl bits))
      ds;
    if !carry <> 0 then invalid_arg "Point.Niels_store.signed_digits: carry out of the top digit";
    ds

  (* --- serialization ---

     Layout: "RTB3" | u32 count | u32 entries (little-endian), then
     count·entries Niels triples (y+x, y-x, 2d*t) in base-major order,
     each a canonical 32-byte field encoding.  Canonical encodings make
     the serialized form identical whether the table was freshly built or
     loaded.  Integrity (CRC) and keying are the cache layer's job;
     [of_bytes] validates the structure and that entry 0 of every base
     really is that base. *)

  let magic = "RTB3"
  let header = 12
  let serialized_size ~count ~entries = header + (count * entries * 96)

  let to_bytes t =
    let buf = Bytes.make (serialized_size ~count:t.count ~entries:t.entries) '\000' in
    Bytes.blit_string magic 0 buf 0 4;
    Bytes.set_int32_le buf 4 (Int32.of_int t.count);
    Bytes.set_int32_le buf 8 (Int32.of_int t.entries);
    for i = 0 to (t.count * t.entries) - 1 do
      let n = entry t (i / t.entries) (i mod t.entries) and o = header + (i * 96) in
      Bytes.blit (Fe.to_bytes n.yplusx) 0 buf o 32;
      Bytes.blit (Fe.to_bytes n.yminusx) 0 buf (o + 32) 32;
      Bytes.blit (Fe.to_bytes n.td2) 0 buf (o + 64) 32
    done;
    buf

  let half = Fe.invert (Fe.of_int 2)

  (* the extended point a Niels entry denotes *)
  let point_of_niels n =
    let x = Fe.mul (Fe.sub n.yplusx n.yminusx) half in
    let y = Fe.mul (Fe.add n.yplusx n.yminusx) half in
    { x; y; z = Fe.one; t = Fe.mul x y }

  let of_bytes ~entries ~bases b =
    let count = Array.length bases in
    if
      Bytes.length b <> serialized_size ~count ~entries
      || (not (String.equal (Bytes.sub_string b 0 4) magic))
      || Bytes.get_int32_le b 4 <> Int32.of_int count
      || Bytes.get_int32_le b 8 <> Int32.of_int entries
    then None
    else begin
      let t = create ~count ~entries in
      for i = 0 to (count * entries) - 1 do
        let fe j = Fe.of_bytes (Bytes.sub b (header + (i * 96) + (32 * j)) 32) in
        set t (i / entries) (i mod entries) { yplusx = fe 0; yminusx = fe 1; td2 = fe 2 }
      done;
      (* the cheap semantic check: a cache entry for the wrong base must
         not slip past the key *)
      let rec bases_match l = l = count || (equal (point_of_niels (entry t l 0)) bases.(l) && bases_match (l + 1)) in
      if bases_match 0 then Some t else None
    end
end

(* One base, many scalars: entry 8w + k of P is (k+1)·16^w·P for w < 64
   and k < 8.  Scalars are recoded into signed base-16 digits in [-8, 7],
   so one multiplication is at most 64 madds and no doublings. *)
module Table = struct
  type table = Niels_store.t

  let windows = 64
  let per_window = 8
  let entries = windows * per_window

  let entries_of p =
    let ext = Array.make entries p in
    let base = ref p in
    for w = 0 to windows - 1 do
      let e1 = !base in
      ext.(w * per_window) <- e1;
      let acc = ref (double e1) in
      ext.((w * per_window) + 1) <- !acc;
      for k = 2 to per_window - 1 do
        acc := add !acc e1;
        ext.((w * per_window) + k) <- !acc
      done;
      if w < windows - 1 then
        for _ = 1 to 4 do
          base := double !base
        done
    done;
    ext

  let make p = Niels_store.build ~span:"point.table.build" ~entries entries_of [| p |]

  (* signed digit d of window w selects ±entry 8w + |d| − 1 *)
  let add_digits tbl ds =
    let acc = ref identity and n = Niels_store.scratch () in
    Array.iteri
      (fun w d ->
        if d <> 0 then begin
          Niels_store.load tbl 0 ((w * per_window) + abs d - 1) n;
          acc := if d > 0 then madd !acc n else msub !acc n
        end)
      ds;
    !acc

  (* scalars are < 2^253, so the top window never carries out *)
  let mul tbl s =
    Telemetry.Counter.incr c_scalarmul;
    add_digits tbl (Niels_store.signed_digits ~bits:4 (Bigint.to_digits ~bits:4 ~count:windows (Scalar.to_bigint s)))

  (* |n| < 2^62 fills at most 16 nibbles; one more digit takes the carry *)
  let mul_small tbl n =
    Telemetry.Counter.incr c_scalarmul;
    if n = min_int then invalid_arg "Table.mul_small: exponent out of range";
    let v = abs n in
    let rec len w = if w < 16 && v lsr (4 * w) <> 0 then len (w + 1) else w in
    let nibbles = Array.init (len 0 + 1) (fun w -> if w < 16 then (v lsr (4 * w)) land 0xf else 0) in
    let p = add_digits tbl (Niels_store.signed_digits ~bits:4 nibbles) in
    if n < 0 then neg p else p

  let serialized_size = Niels_store.serialized_size ~count:1 ~entries
  let to_bytes = Niels_store.to_bytes
  let of_bytes ~base b = Niels_store.of_bytes ~entries ~bases:[| base |] b
end

(* --- fixed-base comb tables for many bases ---

   A Lim–Lee comb with 4 teeth spaced 64 bits apart, signed digits and
   4 blocks.  With T[b] = (1 + Σ_{j=1..3} ±2^{64j})·P for b < 8, the
   sign of tooth j being + iff bit j−1 of b, entry 1 + 8j + b of base P
   is 2^{16j}·T[b], after P itself at entry 0.  An odd scalar k < 2^256
   is recoded as k' = (k + 2^256 − 1)/2 < 2^256, so that
   k = Σ_m (2·bit_m(k') − 1)·2^m: every bit position carries ±1.  Column
   i gathers positions i, i+64, i+128, i+192; factoring out the sign of
   the first tooth leaves ±T[b_i], with b_i the other three bits (flipped
   when the first one is 0).  Column 16j + i is then ±2^i times an entry
   of block j, so one multiplication walks 16 rows of 4 madds each: 15
   doublings and 64 madds, every column nonzero, and the recoding is done
   once per scalar however many bases share it.  An even k runs as
   (k + 1)·P − P, one more msub, so the result is exact for every base,
   torsion component or not. *)

module Comb = struct
  let spacing = 64
  let blocks = 4
  let rows = spacing / blocks
  let entries = 1 + (8 * blocks)

  type t = Niels_store.t

  let length = Niels_store.count

  (* 2^256 − 1 *)
  let all_ones = Bigint.sub (Bigint.shift_left Bigint.one 256) Bigint.one

  (* signed column digits of an odd k, column i at index i: d > 0 selects
     +T[d−1], d < 0 selects −T[−d−1]; never 0 *)
  let recode k =
    let bits = Bigint.to_digits ~bits:1 ~count:256 (Bigint.shift_right (Bigint.add k all_ones) 1) in
    Array.init spacing (fun i ->
        let b = bits.(i + 64) lor (bits.(i + 128) lsl 1) lor (bits.(i + 192) lsl 2) in
        if bits.(i) = 1 then b + 1 else -((b lxor 7) + 1))

  (* P and its 32 comb entries, in extended coordinates, off one doubling
     chain: chain.(m) = 2^{16m}·P and twice.(m) = 2^{16m+1}·P for m < 16.
     Block j's base is chain.(j), its teeth chain.(j + 4t) for t = 1..3,
     and flipping tooth t adds twice.(j + 4t): 241 doublings and 40
     additions per base *)
  let entries_of p =
    let n = 4 * blocks (* teeth × blocks *) in
    let chain = Array.make n p and twice = Array.make n p in
    let acc = ref p in
    for m = 0 to n - 1 do
      if m > 0 then
        for _ = 2 to rows do
          acc := double !acc
        done;
      chain.(m) <- !acc;
      acc := double !acc;
      twice.(m) <- !acc
    done;
    let tbl = Array.make entries p in
    for j = 0 to blocks - 1 do
      let e = 1 + (8 * j) and tooth t = j + (4 * t) in
      tbl.(e) <- sub (sub (sub chain.(j) chain.(tooth 1)) chain.(tooth 2)) chain.(tooth 3);
      for t = 1 to 3 do
        let bit = 1 lsl (t - 1) in
        for b = bit to (2 * bit) - 1 do
          tbl.(e + b) <- add tbl.(e + b - bit) twice.(tooth t)
        done
      done
    done;
    tbl

  let make ps = Niels_store.build ~span:"point.comb.build" ~entries entries_of ps

  (* digit d of column 16j + i selects ±2^{16j}·T[|d| − 1], which is
     entry 8j + |d|; [n] is the caller's scratch *)
  let mul_digits t l n digits =
    let acc = ref identity in
    for i = rows - 1 downto 0 do
      if i < rows - 1 then acc := double !acc;
      for j = 0 to blocks - 1 do
        let d = digits.((rows * j) + i) in
        Niels_store.load t l ((8 * j) + abs d) n;
        acc := if d > 0 then madd !acc n else msub !acc n
      done
    done;
    !acc

  let mul_all t s f =
    Telemetry.Counter.add c_scalarmul (length t);
    let k = Scalar.to_bigint s in
    let even = not (Bigint.testbit k 0) in
    let digits = recode (if even then Bigint.add k Bigint.one else k) in
    Parallel.parallel_init (length t) (fun l ->
        let n = Niels_store.scratch () in
        let p = mul_digits t l n digits in
        f l
          (if even then begin
             Niels_store.load t l 0 n;
             msub p n
           end
           else p))
end

(* --- base point --- *)

let base =
  (* canonical compressed encoding of B = (x, 4/5) with x "even" *)
  let enc = Bytes.make 32 '\x66' in
  Bytes.set enc 0 '\x58';
  match decompress_unchecked enc with
  | Some p -> p
  | None -> assert false

(* eager: a concurrent Lazy.force from two domains raises; building the
   table at module init (~1k additions) keeps mul_base domain-safe *)
let base_table = Table.make base

let mul_base s = Table.mul base_table s

(* Strauss–Shamir interleaving: one shared wNAF doubling chain for both
   scalars, ~1.5x faster than two independent multiplications.  This is
   the hot path of every Sigma-protocol verification and every IPA fold. *)
let double_mul s p t q =
  let es = Scalar.to_bigint s and et = Scalar.to_bigint t in
  if Bigint.is_zero es then mul t q
  else if Bigint.is_zero et then mul s p
  else begin
    Telemetry.Counter.add c_scalarmul 2;
    Telemetry.Counter.add c_wnaf_width (2 * Scalar.wnaf_window);
    let dss = Scalar.to_wnaf s and dts = Scalar.to_wnaf t in
    let tp = odd_multiples p and tq = odd_multiples q in
    let top = ref 255 in
    while !top >= 0 && dss.(!top) = 0 && dts.(!top) = 0 do
      decr top
    done;
    let acc = ref identity in
    for i = !top downto 0 do
      if i < !top then acc := double !acc;
      let ds = dss.(i) in
      if ds > 0 then acc := add !acc tp.((ds - 1) / 2)
      else if ds < 0 then acc := sub !acc tp.(((-ds) - 1) / 2);
      let dt = dts.(i) in
      if dt > 0 then acc := add !acc tq.((dt - 1) / 2)
      else if dt < 0 then acc := sub !acc tq.(((-dt) - 1) / 2)
    done;
    !acc
  end

(* subgroup check needs mul, so it comes last *)
let decompress b =
  match decompress_unchecked b with
  | None -> None
  | Some p ->
      (* multiplication by the group order must give the identity *)
      if is_identity (mul (Scalar.of_bigint (Bigint.sub Scalar.order Bigint.one)) p |> add p) then Some p
      else None

let pp fmt p =
  let b = compress p in
  let buf = Buffer.create 64 in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Format.pp_print_string fmt (Buffer.contents buf)
