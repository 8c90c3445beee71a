(* Z_ℓ for ℓ = 2^252 + δ, δ = 27742317777372353535851937790883648493.

   Representation: twelve limbs of 21 bits, value Σ x_i·2^(21i), always
   the canonical residue in [0, ℓ): limbs 0..10 in [0, 2^21) and limb 11
   (bits 231..252) in [0, 2^21].  A canonical residue is unique, so two
   equal scalars have equal limbs and equal bytes.

   Multiplication, squaring and the 64-byte reduction are ports of
   ref10's sc_muladd / sc_reduce on 64-bit limbs.  2^252 ≡ −δ (mod ℓ),
   and −δ in six signed 21-bit limbs is
     (666643, 470296, 654183, −997805, 136657, −683901),
   so a limb s_k of weight 2^(21k), k ≥ 12, folds into limbs k−12 ..
   k−7.  A product's 23 limbs are brought to [−2^20, 2^20] by rounding
   carries; limbs 23..18 fold down, a carry pass follows, limbs 17..12
   fold down, and rounding then floor carries with two more folds of
   limb 12 leave the canonical residue (the rounding pass leaves the
   value within (−2^252, 2^252), so the last fold only ever adds ℓ).
   No intermediate reaches 2^51 in magnitude: a product limb is below
   2^46, and the largest fold term is a 64-byte input's 29-bit top limb
   times 997805, below 2^49.

   The kernels are written for the non-flambda native compiler, like
   [Fe]'s: every limb is read once into an unboxed int64 local, the
   products and carries run on untagged values, and the twelve result
   limbs are tagged once, into the result (one 12-element allocation,
   no closure).  [add]/[sub]/[neg] stay on native ints: one carry pass
   and one conditional ±ℓ. *)

type t = int array (* length 12, canonical *)

let order = Bigint.of_string "7237005577332262213973186563042994240857116359379907606001950938285454250989"
let bits = 253
let mask = 0x1fffff (* 2^21 − 1 *)

let zero = Array.make 12 0

let one =
  let a = Array.make 12 0 in
  a.(0) <- 1;
  a

(* ℓ's limbs *)
let l0 = 1430509 and l1 = 1626855 and l2 = 1442968 and l3 = 997804 and l4 = 1960495 and l5 = 683900
let l11 = 0x200000 (* limbs 6..10 are zero *)

let[@inline] l (x : t) i = Array.unsafe_get x i

(* 64-bit limb arithmetic on untagged values (see [Fe.I]) *)
module I = struct
  external ( + ) : int64 -> int64 -> int64 = "%int64_add"
  external ( - ) : int64 -> int64 -> int64 = "%int64_sub"
  external ( * ) : int64 -> int64 -> int64 = "%int64_mul"
  external ( asr ) : int64 -> int -> int64 = "%int64_asr"
  external ( lsl ) : int64 -> int -> int64 = "%int64_lsl"
  external of_int : int -> int64 = "%int64_of_int"
  external to_int : int64 -> int = "%int64_to_int"
end

let[@inline] w (x : t) i = I.of_int (Array.unsafe_get x i)

(* --- reduction --- *)

(* Limbs 0..17, each within a few bits of 2^21 in magnitude, to the
   canonical residue: fold 17..12, rounding carries, fold 12, floor
   carries, fold 12, floor carries. *)
let[@inline] finish s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 : t =
  let open I in
  let r = 0x100000L in
  let s5 = s5 + (s17 * 666643L) and s6 = s6 + (s17 * 470296L) and s7 = s7 + (s17 * 654183L)
  and s8 = s8 - (s17 * 997805L) and s9 = s9 + (s17 * 136657L) and s10 = s10 - (s17 * 683901L) in
  let s4 = s4 + (s16 * 666643L) and s5 = s5 + (s16 * 470296L) and s6 = s6 + (s16 * 654183L)
  and s7 = s7 - (s16 * 997805L) and s8 = s8 + (s16 * 136657L) and s9 = s9 - (s16 * 683901L) in
  let s3 = s3 + (s15 * 666643L) and s4 = s4 + (s15 * 470296L) and s5 = s5 + (s15 * 654183L)
  and s6 = s6 - (s15 * 997805L) and s7 = s7 + (s15 * 136657L) and s8 = s8 - (s15 * 683901L) in
  let s2 = s2 + (s14 * 666643L) and s3 = s3 + (s14 * 470296L) and s4 = s4 + (s14 * 654183L)
  and s5 = s5 - (s14 * 997805L) and s6 = s6 + (s14 * 136657L) and s7 = s7 - (s14 * 683901L) in
  let s1 = s1 + (s13 * 666643L) and s2 = s2 + (s13 * 470296L) and s3 = s3 + (s13 * 654183L)
  and s4 = s4 - (s13 * 997805L) and s5 = s5 + (s13 * 136657L) and s6 = s6 - (s13 * 683901L) in
  let s0 = s0 + (s12 * 666643L) and s1 = s1 + (s12 * 470296L) and s2 = s2 + (s12 * 654183L)
  and s3 = s3 - (s12 * 997805L) and s4 = s4 + (s12 * 136657L) and s5 = s5 - (s12 * 683901L) in
  (* rounding carries: limbs 0..11 to [−2^20, 2^20], the overflow in s12 *)
  let c = (s0 + r) asr 21 in let s1 = s1 + c and s0 = s0 - (c lsl 21) in
  let c = (s2 + r) asr 21 in let s3 = s3 + c and s2 = s2 - (c lsl 21) in
  let c = (s4 + r) asr 21 in let s5 = s5 + c and s4 = s4 - (c lsl 21) in
  let c = (s6 + r) asr 21 in let s7 = s7 + c and s6 = s6 - (c lsl 21) in
  let c = (s8 + r) asr 21 in let s9 = s9 + c and s8 = s8 - (c lsl 21) in
  let c = (s10 + r) asr 21 in let s11 = s11 + c and s10 = s10 - (c lsl 21) in
  let c = (s1 + r) asr 21 in let s2 = s2 + c and s1 = s1 - (c lsl 21) in
  let c = (s3 + r) asr 21 in let s4 = s4 + c and s3 = s3 - (c lsl 21) in
  let c = (s5 + r) asr 21 in let s6 = s6 + c and s5 = s5 - (c lsl 21) in
  let c = (s7 + r) asr 21 in let s8 = s8 + c and s7 = s7 - (c lsl 21) in
  let c = (s9 + r) asr 21 in let s10 = s10 + c and s9 = s9 - (c lsl 21) in
  let c = (s11 + r) asr 21 in let s12 = c and s11 = s11 - (c lsl 21) in
  let s0 = s0 + (s12 * 666643L) and s1 = s1 + (s12 * 470296L) and s2 = s2 + (s12 * 654183L)
  and s3 = s3 - (s12 * 997805L) and s4 = s4 + (s12 * 136657L) and s5 = s5 - (s12 * 683901L) in
  (* floor carries: limbs 0..11 to [0, 2^21), the overflow (0 or −1) in s12 *)
  let c = s0 asr 21 in let s1 = s1 + c and s0 = s0 - (c lsl 21) in
  let c = s1 asr 21 in let s2 = s2 + c and s1 = s1 - (c lsl 21) in
  let c = s2 asr 21 in let s3 = s3 + c and s2 = s2 - (c lsl 21) in
  let c = s3 asr 21 in let s4 = s4 + c and s3 = s3 - (c lsl 21) in
  let c = s4 asr 21 in let s5 = s5 + c and s4 = s4 - (c lsl 21) in
  let c = s5 asr 21 in let s6 = s6 + c and s5 = s5 - (c lsl 21) in
  let c = s6 asr 21 in let s7 = s7 + c and s6 = s6 - (c lsl 21) in
  let c = s7 asr 21 in let s8 = s8 + c and s7 = s7 - (c lsl 21) in
  let c = s8 asr 21 in let s9 = s9 + c and s8 = s8 - (c lsl 21) in
  let c = s9 asr 21 in let s10 = s10 + c and s9 = s9 - (c lsl 21) in
  let c = s10 asr 21 in let s11 = s11 + c and s10 = s10 - (c lsl 21) in
  let c = s11 asr 21 in let s12 = c and s11 = s11 - (c lsl 21) in
  let s0 = s0 + (s12 * 666643L) and s1 = s1 + (s12 * 470296L) and s2 = s2 + (s12 * 654183L)
  and s3 = s3 - (s12 * 997805L) and s4 = s4 + (s12 * 136657L) and s5 = s5 - (s12 * 683901L) in
  let c = s0 asr 21 in let s1 = s1 + c and s0 = s0 - (c lsl 21) in
  let c = s1 asr 21 in let s2 = s2 + c and s1 = s1 - (c lsl 21) in
  let c = s2 asr 21 in let s3 = s3 + c and s2 = s2 - (c lsl 21) in
  let c = s3 asr 21 in let s4 = s4 + c and s3 = s3 - (c lsl 21) in
  let c = s4 asr 21 in let s5 = s5 + c and s4 = s4 - (c lsl 21) in
  let c = s5 asr 21 in let s6 = s6 + c and s5 = s5 - (c lsl 21) in
  let c = s6 asr 21 in let s7 = s7 + c and s6 = s6 - (c lsl 21) in
  let c = s7 asr 21 in let s8 = s8 + c and s7 = s7 - (c lsl 21) in
  let c = s8 asr 21 in let s9 = s9 + c and s8 = s8 - (c lsl 21) in
  let c = s9 asr 21 in let s10 = s10 + c and s9 = s9 - (c lsl 21) in
  let c = s10 asr 21 in let s11 = s11 + c and s10 = s10 - (c lsl 21) in
  [| to_int s0; to_int s1; to_int s2; to_int s3; to_int s4; to_int s5;
     to_int s6; to_int s7; to_int s8; to_int s9; to_int s10; to_int s11 |]

(* Limbs 0..23, limbs 0..17 within a few bits of 2^21 and 18..23 below
   2^29, to the canonical residue: fold 23..18, carry 6..16, finish. *)
let[@inline] fold_high s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 s18 s19 s20 s21 s22 s23 =
  let open I in
  let r = 0x100000L in
  let s11 = s11 + (s23 * 666643L) and s12 = s12 + (s23 * 470296L) and s13 = s13 + (s23 * 654183L)
  and s14 = s14 - (s23 * 997805L) and s15 = s15 + (s23 * 136657L) and s16 = s16 - (s23 * 683901L) in
  let s10 = s10 + (s22 * 666643L) and s11 = s11 + (s22 * 470296L) and s12 = s12 + (s22 * 654183L)
  and s13 = s13 - (s22 * 997805L) and s14 = s14 + (s22 * 136657L) and s15 = s15 - (s22 * 683901L) in
  let s9 = s9 + (s21 * 666643L) and s10 = s10 + (s21 * 470296L) and s11 = s11 + (s21 * 654183L)
  and s12 = s12 - (s21 * 997805L) and s13 = s13 + (s21 * 136657L) and s14 = s14 - (s21 * 683901L) in
  let s8 = s8 + (s20 * 666643L) and s9 = s9 + (s20 * 470296L) and s10 = s10 + (s20 * 654183L)
  and s11 = s11 - (s20 * 997805L) and s12 = s12 + (s20 * 136657L) and s13 = s13 - (s20 * 683901L) in
  let s7 = s7 + (s19 * 666643L) and s8 = s8 + (s19 * 470296L) and s9 = s9 + (s19 * 654183L)
  and s10 = s10 - (s19 * 997805L) and s11 = s11 + (s19 * 136657L) and s12 = s12 - (s19 * 683901L) in
  let s6 = s6 + (s18 * 666643L) and s7 = s7 + (s18 * 470296L) and s8 = s8 + (s18 * 654183L)
  and s9 = s9 - (s18 * 997805L) and s10 = s10 + (s18 * 136657L) and s11 = s11 - (s18 * 683901L) in
  let c = (s6 + r) asr 21 in let s7 = s7 + c and s6 = s6 - (c lsl 21) in
  let c = (s8 + r) asr 21 in let s9 = s9 + c and s8 = s8 - (c lsl 21) in
  let c = (s10 + r) asr 21 in let s11 = s11 + c and s10 = s10 - (c lsl 21) in
  let c = (s12 + r) asr 21 in let s13 = s13 + c and s12 = s12 - (c lsl 21) in
  let c = (s14 + r) asr 21 in let s15 = s15 + c and s14 = s14 - (c lsl 21) in
  let c = (s16 + r) asr 21 in let s17 = s17 + c and s16 = s16 - (c lsl 21) in
  let c = (s7 + r) asr 21 in let s8 = s8 + c and s7 = s7 - (c lsl 21) in
  let c = (s9 + r) asr 21 in let s10 = s10 + c and s9 = s9 - (c lsl 21) in
  let c = (s11 + r) asr 21 in let s12 = s12 + c and s11 = s11 - (c lsl 21) in
  let c = (s13 + r) asr 21 in let s14 = s14 + c and s13 = s13 - (c lsl 21) in
  let c = (s15 + r) asr 21 in let s16 = s16 + c and s15 = s15 - (c lsl 21) in
  finish s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17

(* a product's limbs 0..22 (each below 2^47): rounding carries, even
   limbs then odd, then the folds *)
let[@inline] reduce_product s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 s18 s19 s20 s21 s22 =
  let open I in
  let r = 0x100000L in
  let c = (s0 + r) asr 21 in let s1 = s1 + c and s0 = s0 - (c lsl 21) in
  let c = (s2 + r) asr 21 in let s3 = s3 + c and s2 = s2 - (c lsl 21) in
  let c = (s4 + r) asr 21 in let s5 = s5 + c and s4 = s4 - (c lsl 21) in
  let c = (s6 + r) asr 21 in let s7 = s7 + c and s6 = s6 - (c lsl 21) in
  let c = (s8 + r) asr 21 in let s9 = s9 + c and s8 = s8 - (c lsl 21) in
  let c = (s10 + r) asr 21 in let s11 = s11 + c and s10 = s10 - (c lsl 21) in
  let c = (s12 + r) asr 21 in let s13 = s13 + c and s12 = s12 - (c lsl 21) in
  let c = (s14 + r) asr 21 in let s15 = s15 + c and s14 = s14 - (c lsl 21) in
  let c = (s16 + r) asr 21 in let s17 = s17 + c and s16 = s16 - (c lsl 21) in
  let c = (s18 + r) asr 21 in let s19 = s19 + c and s18 = s18 - (c lsl 21) in
  let c = (s20 + r) asr 21 in let s21 = s21 + c and s20 = s20 - (c lsl 21) in
  let c = (s22 + r) asr 21 in let s23 = c and s22 = s22 - (c lsl 21) in
  let c = (s1 + r) asr 21 in let s2 = s2 + c and s1 = s1 - (c lsl 21) in
  let c = (s3 + r) asr 21 in let s4 = s4 + c and s3 = s3 - (c lsl 21) in
  let c = (s5 + r) asr 21 in let s6 = s6 + c and s5 = s5 - (c lsl 21) in
  let c = (s7 + r) asr 21 in let s8 = s8 + c and s7 = s7 - (c lsl 21) in
  let c = (s9 + r) asr 21 in let s10 = s10 + c and s9 = s9 - (c lsl 21) in
  let c = (s11 + r) asr 21 in let s12 = s12 + c and s11 = s11 - (c lsl 21) in
  let c = (s13 + r) asr 21 in let s14 = s14 + c and s13 = s13 - (c lsl 21) in
  let c = (s15 + r) asr 21 in let s16 = s16 + c and s15 = s15 - (c lsl 21) in
  let c = (s17 + r) asr 21 in let s18 = s18 + c and s17 = s17 - (c lsl 21) in
  let c = (s19 + r) asr 21 in let s20 = s20 + c and s19 = s19 - (c lsl 21) in
  let c = (s21 + r) asr 21 in let s22 = s22 + c and s21 = s21 - (c lsl 21) in
  fold_high s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 s18 s19 s20 s21 s22 s23

(* 144 products *)
let mul_raw f g =
  let a0 = w f 0 and a1 = w f 1 and a2 = w f 2 and a3 = w f 3 and a4 = w f 4 and a5 = w f 5 in
  let a6 = w f 6 and a7 = w f 7 and a8 = w f 8 and a9 = w f 9 and a10 = w f 10 and a11 = w f 11 in
  let b0 = w g 0 and b1 = w g 1 and b2 = w g 2 and b3 = w g 3 and b4 = w g 4 and b5 = w g 5 in
  let b6 = w g 6 and b7 = w g 7 and b8 = w g 8 and b9 = w g 9 and b10 = w g 10 and b11 = w g 11 in
  let open I in
  let s0 = (a0 * b0) in
  let s1 = (a0 * b1) + (a1 * b0) in
  let s2 = (a0 * b2) + (a1 * b1) + (a2 * b0) in
  let s3 = (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) in
  let s4 = (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0) in
  let s5 = (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0) in
  let s6 = (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0) in
  let s7 =
    (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0)
  in
  let s8 =
    (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2) + (a7 * b1)
    + (a8 * b0)
  in
  let s9 =
    (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3) + (a7 * b2)
    + (a8 * b1) + (a9 * b0)
  in
  let s10 =
    (a0 * b10) + (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3)
    + (a8 * b2) + (a9 * b1) + (a10 * b0)
  in
  let s11 =
    (a0 * b11) + (a1 * b10) + (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4)
    + (a8 * b3) + (a9 * b2) + (a10 * b1) + (a11 * b0)
  in
  let s12 =
    (a1 * b11) + (a2 * b10) + (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4)
    + (a9 * b3) + (a10 * b2) + (a11 * b1)
  in
  let s13 =
    (a2 * b11) + (a3 * b10) + (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4)
    + (a10 * b3) + (a11 * b2)
  in
  let s14 =
    (a3 * b11) + (a4 * b10) + (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5) + (a10 * b4)
    + (a11 * b3)
  in
  let s15 =
    (a4 * b11) + (a5 * b10) + (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6) + (a10 * b5)
    + (a11 * b4)
  in
  let s16 = (a5 * b11) + (a6 * b10) + (a7 * b9) + (a8 * b8) + (a9 * b7) + (a10 * b6) + (a11 * b5) in
  let s17 = (a6 * b11) + (a7 * b10) + (a8 * b9) + (a9 * b8) + (a10 * b7) + (a11 * b6) in
  let s18 = (a7 * b11) + (a8 * b10) + (a9 * b9) + (a10 * b8) + (a11 * b7) in
  let s19 = (a8 * b11) + (a9 * b10) + (a10 * b9) + (a11 * b8) in
  let s20 = (a9 * b11) + (a10 * b10) + (a11 * b9) in
  let s21 = (a10 * b11) + (a11 * b10) in
  let s22 = (a11 * b11) in
  reduce_product s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 s18 s19 s20 s21 s22

(* 78 products: each cross term once, against a doubled limb *)
let square_raw f =
  let a0 = w f 0 and a1 = w f 1 and a2 = w f 2 and a3 = w f 3 and a4 = w f 4 and a5 = w f 5 in
  let a6 = w f 6 and a7 = w f 7 and a8 = w f 8 and a9 = w f 9 and a10 = w f 10 and a11 = w f 11 in
  let open I in
  let a0_2 = 2L * a0 and a1_2 = 2L * a1 and a2_2 = 2L * a2 and a3_2 = 2L * a3 and a4_2 = 2L * a4 in
  let a5_2 = 2L * a5 and a6_2 = 2L * a6 and a7_2 = 2L * a7 and a8_2 = 2L * a8 and a9_2 = 2L * a9 in
  let a10_2 = 2L * a10 in
  let s0 = (a0 * a0) in
  let s1 = (a0_2 * a1) in
  let s2 = (a0_2 * a2) + (a1 * a1) in
  let s3 = (a0_2 * a3) + (a1_2 * a2) in
  let s4 = (a0_2 * a4) + (a1_2 * a3) + (a2 * a2) in
  let s5 = (a0_2 * a5) + (a1_2 * a4) + (a2_2 * a3) in
  let s6 = (a0_2 * a6) + (a1_2 * a5) + (a2_2 * a4) + (a3 * a3) in
  let s7 = (a0_2 * a7) + (a1_2 * a6) + (a2_2 * a5) + (a3_2 * a4) in
  let s8 = (a0_2 * a8) + (a1_2 * a7) + (a2_2 * a6) + (a3_2 * a5) + (a4 * a4) in
  let s9 = (a0_2 * a9) + (a1_2 * a8) + (a2_2 * a7) + (a3_2 * a6) + (a4_2 * a5) in
  let s10 = (a0_2 * a10) + (a1_2 * a9) + (a2_2 * a8) + (a3_2 * a7) + (a4_2 * a6) + (a5 * a5) in
  let s11 = (a0_2 * a11) + (a1_2 * a10) + (a2_2 * a9) + (a3_2 * a8) + (a4_2 * a7) + (a5_2 * a6) in
  let s12 = (a1_2 * a11) + (a2_2 * a10) + (a3_2 * a9) + (a4_2 * a8) + (a5_2 * a7) + (a6 * a6) in
  let s13 = (a2_2 * a11) + (a3_2 * a10) + (a4_2 * a9) + (a5_2 * a8) + (a6_2 * a7) in
  let s14 = (a3_2 * a11) + (a4_2 * a10) + (a5_2 * a9) + (a6_2 * a8) + (a7 * a7) in
  let s15 = (a4_2 * a11) + (a5_2 * a10) + (a6_2 * a9) + (a7_2 * a8) in
  let s16 = (a5_2 * a11) + (a6_2 * a10) + (a7_2 * a9) + (a8 * a8) in
  let s17 = (a6_2 * a11) + (a7_2 * a10) + (a8_2 * a9) in
  let s18 = (a7_2 * a11) + (a8_2 * a10) + (a9 * a9) in
  let s19 = (a8_2 * a11) + (a9_2 * a10) in
  let s20 = (a9_2 * a11) + (a10 * a10) in
  let s21 = (a10_2 * a11) in
  let s22 = (a11 * a11) in
  reduce_product s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s15 s16 s17 s18 s19 s20 s21 s22

(* one count per multiplication ([mul], [square], [mul_small]) and per
   inversion: the scalar share of a round's cost *)
let c_mul = Telemetry.Counter.make "scalar.mul"
let c_inv = Telemetry.Counter.make "scalar.inv"

let mul a b =
  Telemetry.Counter.incr c_mul;
  mul_raw a b

let square a =
  Telemetry.Counter.incr c_mul;
  square_raw a

(* [c] as three signed 21-bit limbs.  Its magnitude, read as an unsigned
   63-bit int, is at most 2^62: [-min_int] wraps to [min_int], whose
   logical shifts read 2^62, so every native int is exact. *)
let mul_small f c =
  Telemetry.Counter.incr c_mul;
  let m = if c < 0 then -c else c and sg = if c < 0 then -1 else 1 in
  let c0 = I.of_int (sg * (m land mask)) and c1 = I.of_int (sg * ((m lsr 21) land mask)) in
  let c2 = I.of_int (sg * (m lsr 42)) in
  let a0 = w f 0 and a1 = w f 1 and a2 = w f 2 and a3 = w f 3 and a4 = w f 4 and a5 = w f 5 in
  let a6 = w f 6 and a7 = w f 7 and a8 = w f 8 and a9 = w f 9 and a10 = w f 10 and a11 = w f 11 in
  let open I in
  let r = 0x100000L in
  let s0 = (a0 * c0) in
  let s1 = (a1 * c0) + (a0 * c1) in
  let s2 = (a2 * c0) + (a1 * c1) + (a0 * c2) in
  let s3 = (a3 * c0) + (a2 * c1) + (a1 * c2) in
  let s4 = (a4 * c0) + (a3 * c1) + (a2 * c2) in
  let s5 = (a5 * c0) + (a4 * c1) + (a3 * c2) in
  let s6 = (a6 * c0) + (a5 * c1) + (a4 * c2) in
  let s7 = (a7 * c0) + (a6 * c1) + (a5 * c2) in
  let s8 = (a8 * c0) + (a7 * c1) + (a6 * c2) in
  let s9 = (a9 * c0) + (a8 * c1) + (a7 * c2) in
  let s10 = (a10 * c0) + (a9 * c1) + (a8 * c2) in
  let s11 = (a11 * c0) + (a10 * c1) + (a9 * c2) in
  let s12 = (a11 * c1) + (a10 * c2) in
  let s13 = (a11 * c2) in
  let c = (s0 + r) asr 21 in let s1 = s1 + c and s0 = s0 - (c lsl 21) in
  let c = (s2 + r) asr 21 in let s3 = s3 + c and s2 = s2 - (c lsl 21) in
  let c = (s4 + r) asr 21 in let s5 = s5 + c and s4 = s4 - (c lsl 21) in
  let c = (s6 + r) asr 21 in let s7 = s7 + c and s6 = s6 - (c lsl 21) in
  let c = (s8 + r) asr 21 in let s9 = s9 + c and s8 = s8 - (c lsl 21) in
  let c = (s10 + r) asr 21 in let s11 = s11 + c and s10 = s10 - (c lsl 21) in
  let c = (s12 + r) asr 21 in let s13 = s13 + c and s12 = s12 - (c lsl 21) in
  let c = (s1 + r) asr 21 in let s2 = s2 + c and s1 = s1 - (c lsl 21) in
  let c = (s3 + r) asr 21 in let s4 = s4 + c and s3 = s3 - (c lsl 21) in
  let c = (s5 + r) asr 21 in let s6 = s6 + c and s5 = s5 - (c lsl 21) in
  let c = (s7 + r) asr 21 in let s8 = s8 + c and s7 = s7 - (c lsl 21) in
  let c = (s9 + r) asr 21 in let s10 = s10 + c and s9 = s9 - (c lsl 21) in
  let c = (s11 + r) asr 21 in let s12 = s12 + c and s11 = s11 - (c lsl 21) in
  let c = (s13 + r) asr 21 in let s14 = c and s13 = s13 - (c lsl 21) in
  finish s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 0L 0L 0L

(* --- addition: one carry pass and one conditional ±ℓ, on native ints --- *)

let add a b =
  let s0 = l a 0 + l b 0 and s1 = l a 1 + l b 1 and s2 = l a 2 + l b 2 and s3 = l a 3 + l b 3 in
  let s4 = l a 4 + l b 4 and s5 = l a 5 + l b 5 and s6 = l a 6 + l b 6 and s7 = l a 7 + l b 7 in
  let s8 =
    l a 8 + l b 8 and s9 = l a 9 + l b 9 and s10 = l a 10 + l b 10 and s11 = l a 11 + l b 11
  in
  let s1 = s1 + (s0 lsr 21) and s0 = s0 land mask in
  let s2 = s2 + (s1 lsr 21) and s1 = s1 land mask in
  let s3 = s3 + (s2 lsr 21) and s2 = s2 land mask in
  let s4 = s4 + (s3 lsr 21) and s3 = s3 land mask in
  let s5 = s5 + (s4 lsr 21) and s4 = s4 land mask in
  let s6 = s6 + (s5 lsr 21) and s5 = s5 land mask in
  let s7 = s7 + (s6 lsr 21) and s6 = s6 land mask in
  let s8 = s8 + (s7 lsr 21) and s7 = s7 land mask in
  let s9 = s9 + (s8 lsr 21) and s8 = s8 land mask in
  let s10 = s10 + (s9 lsr 21) and s9 = s9 land mask in
  let s11 = s11 + (s10 lsr 21) and s10 = s10 land mask in
  (* the sum is below 2ℓ: take t = s − ℓ unless it is negative *)
  let t0 = s0 - l0 in
  let t1 = s1 - l1 + (t0 asr 21) and t0 = t0 land mask in
  let t2 = s2 - l2 + (t1 asr 21) and t1 = t1 land mask in
  let t3 = s3 - l3 + (t2 asr 21) and t2 = t2 land mask in
  let t4 = s4 - l4 + (t3 asr 21) and t3 = t3 land mask in
  let t5 = s5 - l5 + (t4 asr 21) and t4 = t4 land mask in
  let t6 = s6 + (t5 asr 21) and t5 = t5 land mask in
  let t7 = s7 + (t6 asr 21) and t6 = t6 land mask in
  let t8 = s8 + (t7 asr 21) and t7 = t7 land mask in
  let t9 = s9 + (t8 asr 21) and t8 = t8 land mask in
  let t10 = s10 + (t9 asr 21) and t9 = t9 land mask in
  let t11 = s11 - l11 + (t10 asr 21) and t10 = t10 land mask in
  if t11 < 0 then [| s0; s1; s2; s3; s4; s5; s6; s7; s8; s9; s10; s11 |]
  else [| t0; t1; t2; t3; t4; t5; t6; t7; t8; t9; t10; t11 |]

let sub a b =
  let t0 = l a 0 - l b 0 and t1 = l a 1 - l b 1 and t2 = l a 2 - l b 2 and t3 = l a 3 - l b 3 in
  let t4 = l a 4 - l b 4 and t5 = l a 5 - l b 5 and t6 = l a 6 - l b 6 and t7 = l a 7 - l b 7 in
  let t8 = l a 8 - l b 8 and t9 = l a 9 - l b 9 and t10 = l a 10 - l b 10 and t11 = l a 11 - l b 11 in
  let t1 = t1 + (t0 asr 21) and t0 = t0 land mask in
  let t2 = t2 + (t1 asr 21) and t1 = t1 land mask in
  let t3 = t3 + (t2 asr 21) and t2 = t2 land mask in
  let t4 = t4 + (t3 asr 21) and t3 = t3 land mask in
  let t5 = t5 + (t4 asr 21) and t4 = t4 land mask in
  let t6 = t6 + (t5 asr 21) and t5 = t5 land mask in
  let t7 = t7 + (t6 asr 21) and t6 = t6 land mask in
  let t8 = t8 + (t7 asr 21) and t7 = t7 land mask in
  let t9 = t9 + (t8 asr 21) and t8 = t8 land mask in
  let t10 = t10 + (t9 asr 21) and t9 = t9 land mask in
  let t11 = t11 + (t10 asr 21) and t10 = t10 land mask in
  (* the difference is above −ℓ: add ℓ back when it is negative *)
  if t11 >= 0 then [| t0; t1; t2; t3; t4; t5; t6; t7; t8; t9; t10; t11 |]
  else begin
    let u0 = t0 + l0 in
    let u1 = t1 + l1 + (u0 lsr 21) and u0 = u0 land mask in
    let u2 = t2 + l2 + (u1 lsr 21) and u1 = u1 land mask in
    let u3 = t3 + l3 + (u2 lsr 21) and u2 = u2 land mask in
    let u4 = t4 + l4 + (u3 lsr 21) and u3 = u3 land mask in
    let u5 = t5 + l5 + (u4 lsr 21) and u4 = u4 land mask in
    let u6 = t6 + (u5 lsr 21) and u5 = u5 land mask in
    let u7 = t7 + (u6 lsr 21) and u6 = u6 land mask in
    let u8 = t8 + (u7 lsr 21) and u7 = u7 land mask in
    let u9 = t9 + (u8 lsr 21) and u8 = u8 land mask in
    let u10 = t10 + (u9 lsr 21) and u9 = u9 land mask in
    let u11 = t11 + l11 + (u10 lsr 21) and u10 = u10 land mask in
    [| u0; u1; u2; u3; u4; u5; u6; u7; u8; u9; u10; u11 |]
  end

let neg a = sub zero a

(* a native int read as an unsigned 63-bit magnitude: below 2^63 < ℓ *)
let of_magnitude m = [| m land mask; (m lsr 21) land mask; m lsr 42; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]
let of_int n = if n >= 0 then of_magnitude n else neg (of_magnitude (-n))

let equal (a : t) (b : t) =
  let i = ref 0 in
  while !i < 12 && l a !i = l b !i do
    incr i
  done;
  !i = 12

let is_zero a = equal a zero

(* --- bytes --- *)

let to_bytes x =
  let b = Bytes.create 32 in
  let acc = ref 0 and n = ref 0 and pos = ref 0 in
  for i = 0 to 11 do
    acc := !acc lor (l x i lsl !n);
    n := !n + 21;
    while !n >= 8 do
      Bytes.unsafe_set b !pos (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      n := !n - 8;
      incr pos
    done
  done;
  (* the last byte: bits 248..252, bit 252 being limb 11's 22nd *)
  Bytes.unsafe_set b 31 (Char.unsafe_chr !acc);
  b

(* bits 21i .. 21i + 20 of a little-endian string: the four bytes from
   byte 21i/8 hold them (and, unmasked, up to 7 more bits above) *)
let[@inline] limb_at b i = (Int32.to_int (Bytes.get_int32_le b (21 * i / 8)) land 0xffff_ffff) lsr (21 * i land 7)

(* limbs 0..10 masked; limb 11 keeps bits 231..255, so a value of 2^253
   or more has limb 11 above ℓ's *)
let decode b =
  let[@inline] m i = limb_at b i land mask in
  [| m 0; m 1; m 2; m 3; m 4; m 5; m 6; m 7; m 8; m 9; m 10; limb_at b 11 |]

let order_limbs = [| l0; l1; l2; l3; l4; l5; 0; 0; 0; 0; 0; l11 |]

let below_order x =
  let i = ref 11 in
  while !i > 0 && l x !i = order_limbs.(!i) do
    decr i
  done;
  l x !i < order_limbs.(!i)

let of_bytes_opt b =
  if Bytes.length b <> 32 then None
  else begin
    let x = decode b in
    if below_order x then Some x else None
  end

let of_bytes b =
  if Bytes.length b <> 32 then invalid_arg "Scalar.of_bytes: need 32 bytes";
  match of_bytes_opt b with
  | Some x -> x
  | None -> invalid_arg "Scalar.of_bytes: non-canonical"

let[@inline] wide_limb b i = I.of_int (limb_at b i land mask)

(* ref10's sc_reduce: 24 limbs of 21 bits (the top one 29) straight
   into the folds *)
let of_bytes_wide b =
  if Bytes.length b <> 64 then invalid_arg "Scalar.of_bytes_wide: need 64 bytes";
  fold_high (wide_limb b 0) (wide_limb b 1) (wide_limb b 2) (wide_limb b 3) (wide_limb b 4) (wide_limb b 5)
    (wide_limb b 6) (wide_limb b 7) (wide_limb b 8) (wide_limb b 9) (wide_limb b 10) (wide_limb b 11)
    (wide_limb b 12) (wide_limb b 13) (wide_limb b 14) (wide_limb b 15) (wide_limb b 16) (wide_limb b 17)
    (wide_limb b 18) (wide_limb b 19) (wide_limb b 20) (wide_limb b 21) (wide_limb b 22)
    (I.of_int (limb_at b 23))

let random drbg =
  (* 64 uniform bytes reduced mod ℓ: bias < 2^-250 *)
  of_bytes_wide (Prng.Drbg.bytes drbg 64)

let of_bigint x =
  let x = if Bigint.sign x >= 0 && Bigint.compare x order < 0 then x else Bigint.erem x order in
  decode (Bigint.to_bytes_le ~len:32 x)

let to_bigint x = Bigint.of_bytes_le (to_bytes x)

let half_order = Bigint.shift_right order 1

let to_int_signed x =
  let v = to_bigint x in
  if Bigint.compare v half_order > 0 then Bigint.to_int (Bigint.sub v order) else Bigint.to_int v

(* --- digits --- *)

let to_digits ~bits ~count x =
  if bits < 1 || bits > 30 then invalid_arg "Scalar.to_digits: bits must be in 1..30";
  let dmask = (1 lsl bits) - 1 in
  let out = Array.make count 0 in
  (* [acc] holds the next [n] bits (all that remain once the limbs run out) *)
  let acc = ref 0 and n = ref 0 and next = ref 0 in
  for k = 0 to count - 1 do
    while !n < bits && !next < 12 do
      acc := !acc lor (l x !next lsl !n);
      n := !n + 21;
      incr next
    done;
    Array.unsafe_set out k (!acc land dmask);
    acc := !acc lsr bits;
    n := !n - bits
  done;
  out

(* --- inversion: x^(ℓ−2) --- *)

(* ℓ − 2 after its top bit (252), left to right, as sliding windows of
   up to four bits that end in a one: (squarings before the window's
   multiplication, the window's odd value); [inv_tail] squarings close
   the chain. *)
let inv_windows, inv_tail =
  let e = to_digits ~bits:1 ~count:253 (sub zero (of_int 2)) in
  assert (e.(252) = 1);
  let steps = ref [] and zeros = ref 0 and i = ref 251 in
  while !i >= 0 do
    if e.(!i) = 0 then begin
      incr zeros;
      decr i
    end
    else begin
      let j = ref (max 0 (!i - 3)) in
      while e.(!j) = 0 do
        incr j
      done;
      let v = ref 0 in
      for k = !i downto !j do
        v := (2 * !v) + e.(k)
      done;
      steps := (!zeros + !i - !j + 1, !v) :: !steps;
      zeros := 0;
      i := !j - 1
    end
  done;
  (Array.of_list (List.rev !steps), !zeros)

let inv a =
  if is_zero a then raise Division_by_zero;
  Telemetry.Counter.incr c_inv;
  (* a, a^3, ..., a^15 *)
  let a2 = square_raw a in
  let odd = Array.make 8 a in
  for k = 1 to 7 do
    odd.(k) <- mul_raw odd.(k - 1) a2
  done;
  let acc = ref a in
  for s = 0 to Array.length inv_windows - 1 do
    let sq, v = inv_windows.(s) in
    for _ = 1 to sq do
      acc := square_raw !acc
    done;
    acc := mul_raw !acc odd.(v / 2)
  done;
  for _ = 1 to inv_tail do
    acc := square_raw !acc
  done;
  !acc

let dot_ints a u =
  if Array.length a <> Array.length u then invalid_arg "Scalar.dot_ints: length mismatch";
  (* accumulate natively and spill into the field before the partial sum
     could overflow: |a_i * u_i| <= 2^60 (callers use <= 30-bit inputs) *)
  let acc = ref zero and part = ref 0 in
  let headroom = 1 lsl 60 in
  for i = 0 to Array.length a - 1 do
    if !part > headroom || !part < -headroom then begin
      acc := add !acc (of_int !part);
      part := 0
    end;
    part := !part + (a.(i) * u.(i))
  done;
  add !acc (of_int !part)

(* Sliding-window signed recoding (the ref10 "slide"): rewrite the bit
   string into digits that are zero or odd with |digit| <= 15, preserving
   sum digit_i * 2^i.  Nonzero digits end up >= 4 apart on average, so a
   scalar multiplication needs ~bits/5 additions against an 8-entry
   odd-multiples table instead of bits/4 against a 16-entry one — the
   wNAF half of the group-layer fast paths. *)
let wnaf_window = 5

let to_wnaf x =
  let b = to_bytes x in
  let r = Array.make 256 0 in
  for i = 0 to 255 do
    r.(i) <- (Char.code (Bytes.get b (i lsr 3)) lsr (i land 7)) land 1
  done;
  for i = 0 to 255 do
    if r.(i) <> 0 then begin
      let b = ref 1 in
      let continue_ = ref true in
      while !continue_ && !b <= 6 && i + !b < 256 do
        (if r.(i + !b) <> 0 then begin
           if r.(i) + (r.(i + !b) lsl !b) <= 15 then begin
             r.(i) <- r.(i) + (r.(i + !b) lsl !b);
             r.(i + !b) <- 0
           end
           else if r.(i) - (r.(i + !b) lsl !b) >= -15 then begin
             r.(i) <- r.(i) - (r.(i + !b) lsl !b);
             (* propagate the borrow-turned-carry upward *)
             let k = ref (i + !b) in
             let carrying = ref true in
             while !carrying && !k < 256 do
               if r.(!k) = 0 then begin
                 r.(!k) <- 1;
                 carrying := false
               end
               else begin
                 r.(!k) <- 0;
                 incr k
               end
             done;
             (* scalars are < 2^253, so the carry always finds a zero bit *)
             assert (not !carrying)
           end
           else continue_ := false
         end);
        incr b
      done
    end
  done;
  r

let pp fmt x = Format.pp_print_string fmt (Bigint.to_string (to_bigint x))
