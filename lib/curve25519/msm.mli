(** Multi-scalar multiplication (Straus for small inputs, Pippenger's
    signed-digit bucket method above {!straus_cutoff}).

    Computes Σᵢ eᵢ·Pᵢ in O(n·b / log n) point additions instead of the
    naive O(n·b). This is the "mult-exponentiation" the paper leans on for
    its O(d / log d) client cost: the server's h_t = Π w_l^{a_tl}
    precomputation, the client's VerCrt batch verification (Algorithm 3)
    and the server's e_t recomputation are all instances.

    The Pippenger path of both entry points splits the point set into
    per-domain chunks executed on the {!Parallel} pool ([?jobs] defaults
    to [Parallel.default_jobs ()]); partial chunk sums merge in fixed
    order, so the result is identical for every job count. *)

(** [msm ?jobs pairs] for full-size scalar exponents. Empty input gives
    the identity. Inputs of at most {!straus_cutoff} terms run
    interleaved-wNAF Straus (sequential); larger ones run the chunked
    Pippenger bucket method. Both give the same group element. *)
val msm : ?jobs:int -> (Scalar.t * Point.t) array -> Point.t

(** Largest term count {!msm} evaluates with {!straus}. *)
val straus_cutoff : int

(** The two strategies {!msm} dispatches between, exposed for the
    differential tests and the crossover sweep of the group bench; both
    count toward [msm.evals]/[msm.points] like {!msm}. Callers should use
    {!msm}. *)
val straus : (Scalar.t * Point.t) array -> Point.t

val pippenger : ?jobs:int -> (Scalar.t * Point.t) array -> Point.t

(** [msm_small ?jobs pairs] for native-int exponents of either sign (e.g.
    the discretized Gaussian coefficients a_tl, |a| < 2^30); faster than
    {!msm} because the exponent bit-length is short. Always Pippenger,
    with the window sized for the largest exponent's bit length.
    @raise Invalid_argument on a [min_int] exponent. *)
val msm_small : ?jobs:int -> (int * Point.t) array -> Point.t

(** Points-per-chunk sequential cutoff: inputs that would leave a chunk
    with fewer points run sequentially regardless of [?jobs], because the
    per-chunk fixed costs (full doubling chain + bucket suffix sums per
    window) would dominate. Exposed for tests and the cost model. *)
val seq_cutoff : int

(** Fixed-base tables for bases that many MSMs share (the Bulletproofs
    generators of the range-proof prover): a {!Point.Niels_store} of the
    32 multiples 2^{8w}·P (w < 32) of each base P, 3840 bytes per base.
    An evaluation recodes each scalar into 32 signed 8-bit digits and
    runs one bucket sum over 128 buckets: ~32 {!Point.madd}s per term, no
    doublings, plus at most 256 additions for the running-sum reduction.
    For any bases, {!Fixed.msm} gives the same group element as {!msm}
    over the same terms. *)
module Fixed : sig
  type t

  (** [make ps] builds the tables of every point of [ps] (31·8 doublings
      per base, in blocks of 16 bases per field inversion, spread over
      the {!Parallel} pool). *)
  val make : Point.t array -> t

  (** Number of bases. *)
  val length : t -> int

  (** [msm t terms] is Σ s·P_l over the [(s, l)] of [terms], P_l being
      base [l] of [t]; an index may repeat. Empty input gives the
      identity. Sequential. Counts toward [msm.evals]/[msm.points].
      @raise Invalid_argument if an index is outside [0, length t). *)
  val msm : t -> (Scalar.t * int) array -> Point.t
end

(** Term accumulator for random-linear-combination batch verification.

    Verifier equations [LHS = RHS] are folded by pushing the terms of
    [rho_j * (LHS - RHS)] for an independently random [rho_j] per
    equation; the accumulated batch is accepted iff the MSM over
    {!terms} is the identity. A dishonest term set survives with
    probability at most (#equations)/ℓ over the choice of the [rho_j]
    (ℓ the group order, ~2^252), because the accumulated sum is a nonzero
    ℓ-linear form in the [rho_j] evaluated at a random point. *)
module Acc : sig
  type t

  (** [create ?coalesce ()] — fresh empty accumulator. Bases in
      [coalesce] are recognized by physical equality on {!push} and
      accumulate into a single coefficient cell each (use for fixed bases
      like the Pedersen [g]/[q] that appear in every equation). *)
  val create : ?coalesce:Point.t array -> unit -> t

  (** [push t s p] — add the term [s·p]. *)
  val push : t -> Scalar.t -> Point.t -> unit

  (** Materialize the current term list (coalesced bases last, only if
      their running coefficient is nonzero). The accumulator remains
      usable. *)
  val terms : t -> (Scalar.t * Point.t) array
end
