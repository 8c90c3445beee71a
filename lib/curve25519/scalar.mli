(** Arithmetic modulo the group order
    ℓ = 2^252 + 27742317777372353535851937790883648493 (prime).

    This is ℤ_p of the paper — the exponent field for all commitments,
    secret shares and proofs. A value is twelve 21-bit limbs holding the
    canonical representative in [0, ℓ); multiplication, squaring and the
    64-byte reduction run ref10's fixed-width kernel (sc_muladd /
    sc_reduce) on native 64-bit limbs. {!Bigint} appears only at the
    boundary: {!of_bigint}, {!to_bigint}, {!to_int_signed} and {!pp}. *)

type t

(** The group order ℓ. *)
val order : Bigint.t

(** Bit length of ℓ (253). *)
val bits : int

val zero : t
val one : t

val of_int : int -> t

(** [of_bigint x] reduces any bigint (any sign) into [0, ℓ). *)
val of_bigint : Bigint.t -> t

val to_bigint : t -> Bigint.t

(** [to_int_signed x] interprets [x] as the signed value of minimal
    magnitude (negative if [x > ℓ/2]) and converts to a native int.
    @raise Failure when it does not fit. *)
val to_int_signed : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

(** [mul a b]; each call of {!mul}, {!square} and {!mul_small} adds
    one to the [scalar.mul] telemetry counter. *)
val mul : t -> t -> t

(** [mul_small x c] multiplies by any native int, [min_int] and
    [max_int] included. *)
val mul_small : t -> int -> t

(** [inv x] — multiplicative inverse, counted by [scalar.inv].
    @raise Division_by_zero on zero. *)
val inv : t -> t

(** [square x] = [mul x x]. *)
val square : t -> t

val equal : t -> t -> bool
val is_zero : t -> bool

(** Canonical 32-byte little-endian encoding. *)
val to_bytes : t -> Bytes.t

(** [of_bytes b] decodes 32 bytes and rejects non-canonical values.
    @raise Invalid_argument if [b] is not 32 bytes or encodes a value
    >= ℓ. *)
val of_bytes : Bytes.t -> t

(** [of_bytes_opt b] — total variant of {!of_bytes} for hostile input:
    [None] on wrong length or a non-canonical encoding, never raises. *)
val of_bytes_opt : Bytes.t -> t option

(** [of_bytes_wide b] reduces 64 little-endian bytes modulo ℓ —
    unbiased when they are uniform (hash-to-scalar, {!random}).
    @raise Invalid_argument if [b] is not 64 bytes. *)
val of_bytes_wide : Bytes.t -> t

(** [random drbg] draws a uniform scalar. *)
val random : Prng.Drbg.t -> t

(** [dot_ints a u] computes Σ a_i·u_i mod ℓ for native-int vectors without
    intermediate overflow (the O(kd) field-arithmetic inner products of the
    probabilistic check). Arrays must have equal length. *)
val dot_ints : int array -> int array -> t

(** [to_digits ~bits ~count x] — the first [count] little-endian
    [bits]-wide digits of [x] (digits past bit 252 are 0), read from the
    limbs: the unsigned input of every windowed recoding.
    [1 <= bits <= 30]. *)
val to_digits : bits:int -> count:int -> t -> int array

(** Nominal window width of {!to_wnaf} (5: digits are odd with
    |digit| <= 2^(w−1) − 1 = 15, needing an 8-entry odd-multiples
    table). Exposed for telemetry and the cost model. *)
val wnaf_window : int

(** [to_wnaf x] — sliding-window signed-digit recoding of [x]: an array
    of 256 little-endian digits, each zero or odd with |digit| ≤ 15,
    satisfying Σ dᵢ·2^i = [x]. Used by the variable-base scalar
    multiplication fast path. *)
val to_wnaf : t -> int array

val pp : Format.formatter -> t -> unit
