(** Arithmetic in GF(2^255 − 19), the base field of Curve25519.

    Representation follows the classic "ref10" layout: ten limbs holding
    alternately 26 and 25 bits, kept as signed native ints, so every
    product and limb-sum stays far below the 63-bit native range. Values
    are immutable by convention (operations return fresh arrays).

    Correctness is cross-checked by qcheck against a {!Bigint} reference
    implementation in the test suite. *)

type t

(** The field prime p = 2^255 − 19 (as a bigint, for reference code). *)
val p : Bigint.t

val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val square : t -> t

(** [mul_small x c] multiplies by a small constant [0 <= c < 2^30]. *)
val mul_small : t -> int -> t

(** [invert x] is [x^(p-2)] — the multiplicative inverse (0 maps to 0) —
    by the ref10 addition chain: 254 squarings and 11 multiplications. *)
val invert : t -> t

(** [invert_batch xs] inverts every element with a single field
    exponentiation (Montgomery's trick): 3(n−1) multiplications plus one
    {!invert}. Zero entries map to zero. *)
val invert_batch : t array -> t array

(** [pow_p58 x] is [x^((p-5)/8)], the core step of the square-root used in
    point decompression; it shares {!invert}'s addition chain up to
    [x^(2^250-1)]. *)
val pow_p58 : t -> t

(** Off-heap storage for many field elements: {!limbs} 32-bit ints per
    element, limbs exactly as held in a {!t} (not reduced). *)
type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Ints per stored element (10). *)
val limbs : int

(** [load b o] reads the element stored at offset [o] (unchecked: the
    caller keeps [o + limbs <= dim b]). *)
val load : buf -> int -> t

(** [store b o x] writes [x] at offset [o] (unchecked, as {!load}).
    @raise Invalid_argument if a limb of [x] does not fit in 32 bits. *)
val store : buf -> int -> t -> unit

(** Canonical 32-byte little-endian encoding (top bit clear). *)
val to_bytes : t -> Bytes.t

(** Decode 32 little-endian bytes; the top bit (bit 255) is ignored. The
    result may represent a value in [p, 2^255); it is reduced on the next
    canonical encoding. *)
val of_bytes : Bytes.t -> t

(** Exact equality of field elements (compares canonical encodings). *)
val equal : t -> t -> bool

val is_zero : t -> bool

(** [is_negative x] is the least significant bit of the canonical
    encoding — the "sign" convention of RFC 8032. *)
val is_negative : t -> bool

(** Conversions to/from {!Bigint} (canonical representative in [0, p)). *)
val to_bigint : t -> Bigint.t

val of_bigint : Bigint.t -> t

(** [of_int n] embeds a native int (any sign). *)
val of_int : int -> t

(** Square root of -1, i.e. [sqrt_m1]^2 = -1 (mod p). *)
val sqrt_m1 : t

(** The twisted-Edwards curve constant d = −121665/121666. *)
val edwards_d : t

(** 2·d, used by the extended-coordinates addition formulas. *)
val edwards_d2 : t

val pp : Format.formatter -> t -> unit
