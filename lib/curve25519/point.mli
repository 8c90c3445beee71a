(** The prime-order group 𝔾: the order-ℓ subgroup of the twisted Edwards
    curve −x² + y² = 1 + d·x²y² over GF(2^255 − 19) (Ed25519).

    This plays the role of libsodium's Ristretto group in the paper: a
    group of prime order ℓ ≈ 2^252 where the discrete-logarithm problem is
    hard (≈126-bit security). Points are kept in extended homogeneous
    coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.

    All points constructed through this interface lie in the prime-order
    subgroup; [decompress] validates untrusted encodings (on-curve,
    canonical, and subgroup membership). *)

type t

(** The neutral element. *)
val identity : t

(** The standard Ed25519 base point B (order ℓ). *)
val base : t

val add : t -> t -> t
val sub : t -> t -> t
val double : t -> t
val neg : t -> t

(** [equal p q] — projective-coordinate–independent equality. *)
val equal : t -> t -> bool

val is_identity : t -> bool

(** [mul s p] is the scalar multiple [s]·[p] (sliding-window wNAF:
    signed odd digits against an 8-entry odd-multiples precompute). *)
val mul : Scalar.t -> t -> t

(** {2 Mixed-affine (Niels) fast path}

    A point with z = 1 stored as (y+x, y−x, 2d·t): adding one to an
    extended point ({!madd}) costs 7 field multiplications instead of 9.
    The MSM bucket loop and the fixed-base tables batch-convert their
    inputs to this form through a single Montgomery inversion
    ({!to_niels_batch}) and do all their additions as madds. The results
    are the same group elements as the extended-coordinates path —
    compressed encodings, proofs and verdicts are bit-identical. *)

type niels

(** [madd p n] — mixed addition; the same group element as [add p q]
    where [q] is the point [n] denotes. *)
val madd : t -> niels -> t

(** [msub p n] = [madd p (−n)] (negating a Niels point is free: swap the
    sums and negate the t-product). *)
val msub : t -> niels -> t

(** [to_niels_batch ps] — convert many points with one shared field
    inversion. Identity points convert fine (z is never 0). *)
val to_niels_batch : t array -> niels array

(** [odd_multiples p] is [[| p; 3p; 5p; …; 15p |]]: the precompute of
    a width-5 wNAF multiplication (one doubling and seven additions). *)
val odd_multiples : t -> t array

(** [mul_small n p] is [n]·[p] for a native-int scalar of either sign —
    much faster than {!mul} for short exponents (e.g. 16-bit gradient
    coordinates). *)
val mul_small : int -> t -> t

(** [mul_base s] is [s]·B using a precomputed fixed-base table. *)
val mul_base : Scalar.t -> t

(** [double_mul s p t q] is [s·p + t·q] (used all over commitment
    generation: g^x · h^r). *)
val double_mul : Scalar.t -> t -> Scalar.t -> t -> t

(** {2 Fixed-base tables}

    Every fixed-base table is a {!Niels_store}: a fixed number of Niels
    entries per base, off the OCaml heap in one {!Fe.buf}, entry 0 of
    each base being the base itself. Three multiplication loops read it,
    one per shape: {!Table} (one base, many scalars), {!Comb} (many
    bases, one scalar) and [Msm.Fixed] (many bases, many scalars,
    summed). Every loop gives exactly [s]·P for any base P, torsion
    component or not. *)

module Niels_store : sig
  type point := t
  type t

  (** [build ~span ~entries entries_of ps] stores the [entries] points
      [entries_of p] of every base [p] of [ps], in Niels form. Bases go
      in blocks of 16 per field inversion at fixed offsets, spread over
      the {!Parallel} pool, so the [point.niels.*] counters do not depend
      on the job count; a build of one block runs inline. The build runs
      inside the telemetry span [span].
      @raise Invalid_argument if [entries_of] returns another count. *)
  val build : span:string -> entries:int -> (point -> point array) -> point array -> t

  (** Number of bases. *)
  val count : t -> int

  (** [entry t l e] is entry [e] of base [l], freshly allocated.
      @raise Invalid_argument if either index is out of range. *)
  val entry : t -> int -> int -> niels

  (** [scratch ()] is a fresh Niels value for {!load} to refill. A
      multiplication loop keeps one per loop or parallel task, so its
      reads allocate nothing; {!madd} and {!msub} keep no part of it. *)
  val scratch : unit -> niels

  (** [load t l e n] overwrites the scratch [n] with entry [e] of base
      [l].
      @raise Invalid_argument if either index is out of range. *)
  val load : t -> int -> int -> niels -> unit

  (** [signed_digits ~bits ds] recodes the little-endian unsigned
      [bits]-bit digits [ds], in place, into signed digits in
      [[−2^(bits−1), 2^(bits−1))] of the same value, and returns [ds].
      The top digit keeps its carry and lies in [[0, 2^(bits−1)]], so
      ⌈(b+1)/bits⌉ digits hold any b-bit value.
      @raise Invalid_argument if the top digit would exceed 2^(bits−1). *)
  val signed_digits : bits:int -> int array -> int array
end

(** One base, many scalars: 64 windows of the 8 multiples (k+1)·16^w·P,
    512 entries (60 KB) per table, driven by a signed base-16 recoding
    (digits in [−8, 7]), so a multiplication is at most 64 {!madd}s and
    no doublings. *)
module Table : sig
  type table

  (** [make p] builds a table making repeated [mul] on [p] ~4x faster. *)
  val make : t -> table

  val mul : table -> Scalar.t -> t

  (** [mul_small tbl n] for native-int exponents of either sign.
      @raise Invalid_argument on [min_int]. *)
  val mul_small : table -> int -> t

  (** Serialized size in bytes (fixed: a 12-byte header plus 512 Niels
      triples of canonical 32-byte field encodings). *)
  val serialized_size : int

  (** Canonical serialization for the persistent table cache, shared by
      every {!Niels_store}. The bytes are identical whether the table was
      freshly built or loaded from cache. *)
  val to_bytes : table -> Bytes.t

  (** [of_bytes ~base b] — parse a serialized table. Returns [None] on
      any structural mismatch (length, magic, geometry) or if the first
      entry does not denote [base]. Integrity (checksums) and cache
      keying are the caller's job ({!Store.Cache} frames blobs with a
      CRC); this function never raises. *)
  val of_bytes : base:t -> Bytes.t -> table option
end

(** Many bases that share each scalar (the setup bases w_1 … w_d,
    multiplied by one blind per round): a Lim–Lee comb with 4 teeth
    spaced 64 bits apart, signed digits and 4 blocks of 16 columns. Each
    base keeps itself and 32 comb entries (3960 bytes per base). A
    multiplication is 15 doublings and 64 {!madd}s, plus one {!msub} of
    the base for an even scalar, against ~252 doublings and ~42
    additions for {!mul}. *)
module Comb : sig
  type point := t
  type t

  (** [make ps] builds the tables for every point of [ps] (one doubling
      chain of 241 doublings plus 40 additions per base, spread over the
      {!Parallel} pool). *)
  val make : point array -> t

  (** Number of bases. *)
  val length : t -> int

  (** [mul_all t s f] is [f l (s·base l)] for every base [l], in base
      order: the scalar is recoded once and the bases run over the
      {!Parallel} pool. [f] consumes each product where it is made, so
      no array of the d intermediate points is ever held. *)
  val mul_all : t -> Scalar.t -> (int -> point -> 'a) -> 'a array
end

(** 32-byte compressed encoding (canonical y with sign-of-x bit). *)
val compress : t -> Bytes.t

(** [compress_batch ps] compresses many points with one shared field
    inversion (Montgomery batching) — much faster than mapping
    {!compress} when [ps] is large (BSGS decoding, table hashing). *)
val compress_batch : t array -> Bytes.t array

(** Decode and fully validate an untrusted encoding: canonical field
    element, on-curve, and in the prime-order subgroup. Returns [None] on
    any failure.

    Totality invariant: both decoders are total on arbitrary byte strings
    (any length, any contents) — they return [None] and never raise. The
    wire layer relies on this to keep hostile frames from crashing the
    receiver. *)
val decompress : Bytes.t -> t option

(** Decode without the (expensive) subgroup check — for trusted inputs
    such as locally generated tables. Still checks on-curve + canonical. *)
val decompress_unchecked : Bytes.t -> t option

(** Affine coordinates (x, y) — mostly for tests. *)
val to_affine : t -> Fe.t * Fe.t

val pp : Format.formatter -> t -> unit
