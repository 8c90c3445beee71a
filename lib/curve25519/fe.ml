(* GF(2^255 - 19) in the ref10 radix-25.5 representation.

   A value is h0 + h1*2^26 + h2*2^51 + h3*2^77 + h4*2^102 + h5*2^128
   + h6*2^153 + h7*2^179 + h8*2^204 + h9*2^230 with even limbs spanning
   26 bits and odd limbs 25 bits (signed), stored as native ints.  The
   multiplication and carry chains below are direct ports of the
   public-domain ref10 code and, as in C, compute on int64 within
   ref10's bound (largest intermediate < 2^62).

   The hot kernels are written for the non-flambda native compiler:
   [mul], [square] and [mul_small] read each limb once, with an
   unchecked load, into an unboxed int64 local, run the products and the
   one carry chain on untagged values, and tag the ten carried limbs
   once, into the result: a 10-element array literal (one allocation, no
   closure).  [add]/[sub]/[neg] stay on native ints. *)

type t = int array (* length 10 *)

let p = Bigint.(sub (shift_left one 255) (of_int 19))

let zero = Array.make 10 0

let one =
  let a = Array.make 10 0 in
  a.(0) <- 1;
  a

let[@inline] l (f : t) i = Array.unsafe_get f i

let add f g =
  [| l f 0 + l g 0; l f 1 + l g 1; l f 2 + l g 2; l f 3 + l g 3; l f 4 + l g 4;
     l f 5 + l g 5; l f 6 + l g 6; l f 7 + l g 7; l f 8 + l g 8; l f 9 + l g 9 |]

let sub f g =
  [| l f 0 - l g 0; l f 1 - l g 1; l f 2 - l g 2; l f 3 - l g 3; l f 4 - l g 4;
     l f 5 - l g 5; l f 6 - l g 6; l f 7 - l g 7; l f 8 - l g 8; l f 9 - l g 9 |]

let neg f =
  [| - l f 0; - l f 1; - l f 2; - l f 3; - l f 4; - l f 5; - l f 6; - l f 7; - l f 8; - l f 9 |]

(* 64-bit limb arithmetic on untagged values.  An [int64] let-bound in a
   function and used only by these primitives stays unboxed in a
   register (or an unscanned stack slot) under the non-flambda native
   compiler, so the products and carries below pay no tag shifts. *)
module I = struct
  external ( + ) : int64 -> int64 -> int64 = "%int64_add"
  external ( - ) : int64 -> int64 -> int64 = "%int64_sub"
  external ( * ) : int64 -> int64 -> int64 = "%int64_mul"
  external ( asr ) : int64 -> int -> int64 = "%int64_asr"
  external ( lsl ) : int64 -> int -> int64 = "%int64_lsl"
  external of_int : int -> int64 = "%int64_of_int"
  external to_int : int64 -> int = "%int64_to_int"
end

let[@inline] w (f : t) i = I.of_int (Array.unsafe_get f i)

(* ref10 carry chain: brings limbs back to canonical 26/25-bit magnitude
   and returns them, tagged once, as a fresh array.  Shifts are
   arithmetic so the chain works on signed limbs.  Each step's [and]
   reads the pre-step values. *)
let[@inline] carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 : t =
  let open I in
  let c = (h0 + (1L lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + (1L lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + (1L lsl 24)) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + (1L lsl 24)) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + (1L lsl 25)) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + (1L lsl 25)) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + (1L lsl 24)) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + (1L lsl 24)) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + (1L lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + (1L lsl 25)) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + (1L lsl 24)) asr 25 in
  let h0 = h0 + (c * 19L) and h9 = h9 - (c lsl 25) in
  let c = (h0 + (1L lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  [| to_int h0; to_int h1; to_int h2; to_int h3; to_int h4;
     to_int h5; to_int h6; to_int h7; to_int h8; to_int h9 |]

let mul f g =
  let f0 = w f 0 and f1 = w f 1 and f2 = w f 2 and f3 = w f 3 and f4 = w f 4 in
  let f5 = w f 5 and f6 = w f 6 and f7 = w f 7 and f8 = w f 8 and f9 = w f 9 in
  let g0 = w g 0 and g1 = w g 1 and g2 = w g 2 and g3 = w g 3 and g4 = w g 4 in
  let g5 = w g 5 and g6 = w g 6 and g7 = w g 7 and g8 = w g 8 and g9 = w g 9 in
  let open I in
  let g1_19 = 19L * g1 and g2_19 = 19L * g2 and g3_19 = 19L * g3 and g4_19 = 19L * g4 in
  let g5_19 = 19L * g5 and g6_19 = 19L * g6 and g7_19 = 19L * g7 and g8_19 = 19L * g8 in
  let g9_19 = 19L * g9 in
  let f1_2 = 2L * f1 and f3_2 = 2L * f3 and f5_2 = 2L * f5 and f7_2 = 2L * f7 and f9_2 = 2L * f9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19) + (f5_2 * g5_19)
    + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19) + (f9_2 * g1_19)
  in
  let h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19) + (f5 * g6_19)
    + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19)
  in
  let h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19) + (f5_2 * g7_19)
    + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19) + (f9_2 * g3_19)
  in
  let h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19) + (f5 * g8_19) + (f6 * g7_19)
    + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19)
  in
  let h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0) + (f5_2 * g9_19)
    + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19) + (f9_2 * g5_19)
  in
  let h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0) + (f6 * g9_19)
    + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
  in
  let h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2) + (f5_2 * g1) + (f6 * g0)
    + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19)
  in
  let h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2) + (f6 * g1) + (f7 * g0)
    + (f8 * g9_19) + (f9 * g8_19)
  in
  let h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4) + (f5_2 * g3) + (f6 * g2)
    + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  in
  let h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4) + (f6 * g3) + (f7 * g2)
    + (f8 * g1) + (f9 * g0)
  in
  carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* Dedicated squaring (ref10 fe_sq): ~30% cheaper than mul, and point
   doubling — the bulk of every scalar multiplication — is four squares. *)
let square f =
  let f0 = w f 0 and f1 = w f 1 and f2 = w f 2 and f3 = w f 3 and f4 = w f 4 in
  let f5 = w f 5 and f6 = w f 6 and f7 = w f 7 and f8 = w f 8 and f9 = w f 9 in
  let open I in
  let f0_2 = 2L * f0 and f1_2 = 2L * f1 and f2_2 = 2L * f2 and f3_2 = 2L * f3 in
  let f4_2 = 2L * f4 and f5_2 = 2L * f5 and f6_2 = 2L * f6 and f7_2 = 2L * f7 in
  let f5_38 = 38L * f5 and f6_19 = 19L * f6 and f7_38 = 38L * f7 in
  let f8_19 = 19L * f8 and f9_38 = 38L * f9 in
  let h0 = (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19) + (f5 * f5_38) in
  let h1 = (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19) in
  let h2 = (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38) + (f6 * f6_19) in
  let h3 = (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38) in
  let h4 = (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19) + (f7 * f7_38) in
  let h5 = (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19) in
  let h6 = (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38) + (f8 * f8_19) in
  let h7 = (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38) in
  let h8 = (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4) + (f9 * f9_38) in
  let h9 = (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5) in
  carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let mul_small f c =
  let c = I.of_int c in
  I.(carry (w f 0 * c) (w f 1 * c) (w f 2 * c) (w f 3 * c) (w f 4 * c) (w f 5 * c) (w f 6 * c)
       (w f 7 * c) (w f 8 * c) (w f 9 * c))

(* Off-heap limb storage: ten 32-bit limbs per element, so a large table
   of field elements costs the GC one custom block, not one array each,
   at half the bytes of native ints.  Every limb a table stores (a
   product's carried limbs, or the sum or difference of two) is below
   2^28 in magnitude; [store] checks the 32-bit range. *)
type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let limbs = 10

(* a fresh element for [load_into] to refill: the table loops read
   their entries through one such scratch per loop, not one allocation
   per read *)
let scratch () = Array.make limbs 0

let load_into (b : buf) o (f : t) =
  for i = 0 to limbs - 1 do
    Array.unsafe_set f i (Int32.to_int (Bigarray.Array1.unsafe_get b (o + i)))
  done

let store (b : buf) o f =
  for i = 0 to limbs - 1 do
    let v = Int32.of_int (l f i) in
    if Int32.to_int v <> l f i then invalid_arg "Fe.store: limb out of 32-bit range";
    Bigarray.Array1.unsafe_set b (o + i) v
  done

(* Canonical reduction and little-endian packing (ref10 fe_tobytes). *)
let to_bytes f =
  let h = carry (w f 0) (w f 1) (w f 2) (w f 3) (w f 4) (w f 5) (w f 6) (w f 7) (w f 8) (w f 9) in
  let q = ref (((19 * h.(9)) + (1 lsl 24)) asr 25) in
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    q := (h.(i) + !q) asr sz
  done;
  (* !q = 1 iff h >= p; fold 19q in and do a plain carry pass *)
  h.(0) <- h.(0) + (19 * !q);
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    let c = h.(i) asr sz in
    if i < 9 then h.(i + 1) <- h.(i + 1) + c;
    h.(i) <- h.(i) - (c lsl sz)
  done;
  (* pack 255 bits, little-endian *)
  let out = Bytes.make 32 '\000' in
  let acc = ref 0 and accbits = ref 0 and pos = ref 0 in
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    acc := !acc lor (h.(i) lsl !accbits);
    accbits := !accbits + sz;
    while !accbits >= 8 do
      Bytes.set out !pos (Char.chr (!acc land 0xff));
      acc := !acc lsr 8;
      accbits := !accbits - 8;
      incr pos
    done
  done;
  if !accbits > 0 then Bytes.set out !pos (Char.chr (!acc land 0xff));
  out

let of_bytes s =
  if Bytes.length s <> 32 then invalid_arg "Fe.of_bytes: need 32 bytes";
  let h = Array.make 10 0 in
  let acc = ref 0 and accbits = ref 0 and pos = ref 0 in
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    while !accbits < sz do
      if !pos < 32 then acc := !acc lor (Char.code (Bytes.get s !pos) lsl !accbits);
      incr pos;
      accbits := !accbits + 8
    done;
    h.(i) <- !acc land ((1 lsl sz) - 1);
    acc := !acc lsr sz;
    accbits := !accbits - sz
  done;
  h

let equal f g = Bytes.equal (to_bytes f) (to_bytes g)
let is_zero f = equal f zero
let is_negative f = Char.code (Bytes.get (to_bytes f) 0) land 1 = 1

let to_bigint f = Bigint.of_bytes_le (to_bytes f)

let of_bigint x =
  let x = Bigint.erem x p in
  of_bytes (Bigint.to_bytes_le ~len:32 x)

let of_int n = of_bigint (Bigint.of_int n)

(* --- fixed exponents by addition chain (ref10 fe_invert/fe_pow22523) ---

   Both exponents start, from the top bit, with 250 one bits, so they
   share the ladder to z^(2^250 − 1): 249 squarings and 10 multiplications.
   p − 2 = (2^250 − 1)·2^5 + 11 and (p − 5)/8 = (2^250 − 1)·2^2 + 1. *)

let rec square_n f n = if n = 0 then f else square_n (square f) (n - 1)

(* (z^(2^250 − 1), z^11) *)
let pow_2_250_1 z =
  let z2 = square z in
  let z9 = mul (square_n z2 2) z in
  let z11 = mul z9 z2 in
  let z_5_0 = mul (square z11) z9 in (* z^(2^5 − 1) *)
  let z_10_0 = mul (square_n z_5_0 5) z_5_0 in
  let z_20_0 = mul (square_n z_10_0 10) z_10_0 in
  let z_40_0 = mul (square_n z_20_0 20) z_20_0 in
  let z_50_0 = mul (square_n z_40_0 10) z_10_0 in
  let z_100_0 = mul (square_n z_50_0 50) z_50_0 in
  let z_200_0 = mul (square_n z_100_0 100) z_100_0 in
  let z_250_0 = mul (square_n z_200_0 50) z_50_0 in
  (z_250_0, z11)

let invert f =
  let z_250_0, z11 = pow_2_250_1 f in
  mul (square_n z_250_0 5) z11

let pow_p58 f = mul (square_n (fst (pow_2_250_1 f)) 2) f

let c_invb_calls = Telemetry.Counter.make "fe.invert_batch.calls"
let c_invb_elems = Telemetry.Counter.make "fe.invert_batch.elems"

let invert_batch xs =
  Telemetry.Counter.incr c_invb_calls;
  Telemetry.Counter.add c_invb_elems (Array.length xs);
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* replace zeros by one during accumulation, restore at the end *)
    let zero_mask = Array.map is_zero xs in
    let safe = Array.mapi (fun i x -> if zero_mask.(i) then one else x) xs in
    let prefix = Array.make n one in
    let acc = ref one in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      acc := mul !acc safe.(i)
    done;
    let inv_all = ref (invert !acc) in
    let out = Array.make n zero in
    for i = n - 1 downto 0 do
      if not zero_mask.(i) then out.(i) <- mul !inv_all prefix.(i);
      inv_all := mul !inv_all safe.(i)
    done;
    out
  end

(* 2^((p−1)/4) is a square root of −1; (p−1)/4 = 2·(p−5)/8 + 1 *)
let sqrt_m1 =
  let two = of_int 2 in
  mul (square (pow_p58 two)) two

let edwards_d =
  let inv121666 = Bigint.mod_inv (Bigint.of_int 121666) p in
  of_bigint (Bigint.erem (Bigint.mul (Bigint.of_int (-121665)) inv121666) p)

let edwards_d2 = add edwards_d edwards_d

let pp fmt f = Format.pp_print_string fmt (Bigint.to_hex (to_bigint f))
