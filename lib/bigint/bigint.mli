(** Arbitrary-precision signed integers.

    This module is the numeric bedrock of the repository: the offline switch
    has no [zarith], so curve constants, the scalar field's boundary
    conversions, serialization and the reference implementations used to
    cross-check the fixed-width field and scalar arithmetic are all built
    on it.

    Representation: sign-magnitude with little-endian arrays of 26-bit limbs,
    always normalized (no leading zero limbs; zero has an empty magnitude and
    positive sign). All operations are purely functional. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer (full 63-bit range supported). *)
val of_int : int -> t

(** [to_int x] converts back to a native integer.
    @raise Failure if the value does not fit in a native [int]. *)
val to_int : t -> int

(** [to_int_opt x] is [Some (to_int x)] when the value fits, else [None]. *)
val to_int_opt : t -> int option

(** [of_hex s] parses a hexadecimal string, optionally prefixed by ["-"]
    and/or ["0x"]. @raise Invalid_argument on malformed input. *)
val of_hex : string -> t

(** [to_hex x] renders the value in lowercase hexadecimal (["-"]-prefixed
    when negative, no ["0x"]). *)
val to_hex : t -> string

(** [of_string s] parses a decimal string, optionally ["-"]-prefixed.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** [to_string x] renders the value in decimal. *)
val to_string : t -> string

(** [of_bytes_le b] interprets [b] as an unsigned little-endian integer. *)
val of_bytes_le : Bytes.t -> t

(** [to_bytes_le ~len x] is the unsigned little-endian encoding of [x],
    zero-padded to [len] bytes.
    @raise Invalid_argument if [x] is negative or does not fit in [len]. *)
val to_bytes_le : len:int -> t -> Bytes.t

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

(** [min a b] / [max a b] with respect to {!compare}. *)
val min : t -> t -> t

val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|], and [r]
    carrying the sign of [a] (truncated division, like OCaml's [/] and
    [mod]). @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [erem a b] is the non-negative euclidean remainder: [0 <= erem a b < |b|]. *)
val erem : t -> t -> t

(** {1 Bit operations} *)

(** [shift_left x n] is [x * 2^n]. [n >= 0]. *)
val shift_left : t -> int -> t

(** [shift_right x n] is [x / 2^n] rounded toward zero for the magnitude
    (arithmetic on the magnitude, sign preserved). [n >= 0]. *)
val shift_right : t -> int -> t

(** [bit_length x] is the position of the highest set bit of [|x|]
    (0 for zero). *)
val bit_length : t -> int

(** [testbit x i] is bit [i] of the magnitude of [x]. *)
val testbit : t -> int -> bool

(** [to_digits ~bits ~count x] extracts the first [count] little-endian
    [bits]-wide digits of the magnitude of [x] in one pass over the limbs
    (missing high digits are 0). This is the shared digit decomposition
    of every windowed scalar multiplication: one call replaces
    [bits * count] {!testbit} probes. [1 <= bits <= 30]. *)
val to_digits : bits:int -> count:int -> t -> int array

(** {1 Modular arithmetic} *)

(** [mod_pow base exp m] is [base^exp mod m] for [exp >= 0], [m > 0];
    result in [0, m). *)
val mod_pow : t -> t -> t -> t

(** [mod_inv a m] is the inverse of [a] modulo [m] ([m > 0]).
    @raise Not_found if [gcd a m <> 1]. *)
val mod_inv : t -> t -> t

val gcd : t -> t -> t

(** {1 Misc} *)

(** [pow x n] is [x^n] for small non-negative [n]. *)
val pow : t -> int -> t

(** [random ~bits rand26] draws a uniform value in [0, 2^bits) using
    [rand26 ()], a supplier of uniform 26-bit integers. *)
val random : bits:int -> (unit -> int) -> t

val pp : Format.formatter -> t -> unit

(** {1 Internal access (used by fixed-width field code and tests)} *)

(** [of_limbs ~neg limbs] builds a value from 26-bit limbs (copied,
    normalized). *)
val of_limbs : neg:bool -> int array -> t

(** Number of bits per limb (26). *)
val limb_bits : int
