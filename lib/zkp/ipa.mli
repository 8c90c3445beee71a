(** The Bulletproofs inner-product argument (Bünz et al., S&P 2018, §3).

    Proves knowledge of vectors a, b with
    P = Π gᵢ^{aᵢ} · Π hᵢ^{bᵢ} · u^{⟨a,b⟩}
    using 2·log₂ n group elements. Vector length must be a power of two
    (the range-proof layer arranges this). *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type proof = {
  ls : Point.t array;  (** left cross terms, one per halving round *)
  rs : Point.t array;  (** right cross terms *)
  a : Scalar.t;  (** final folded a *)
  b : Scalar.t;  (** final folded b *)
}

(** [prove ?h_factor ?u_scale tr ~g ~h ~u ~a ~b]. Lengths of [g], [h],
    [a], [b] must be an equal power of two. The caller must already have
    absorbed P into the transcript. The argument runs over the generators
    hᵢ' = fⁱ·hᵢ and u' = w·u for [h_factor] f and [u_scale] w (both
    default to 1), without materializing them: the proof is
    byte-identical to proving over precomputed h' and u'.

    The generator vectors halve every round, each pair folded with one
    variable-base multiplication (2·(n−2) per proof). *)
val prove :
  ?h_factor:Scalar.t ->
  ?u_scale:Scalar.t ->
  Transcript.t ->
  g:Point.t array ->
  h:Point.t array ->
  u:Point.t ->
  a:Scalar.t array ->
  b:Scalar.t array ->
  proof

(** [prove_table ?h_factor ?u_scale t tr ~a ~b] — the same proof as
    {!prove}, folding no generator: each round's L and R are one
    {!Curve25519.Msm.Fixed.msm} of n + 1 terms over the original
    generators, the prover keeping one scalar coefficient per index.
    [t] holds 2c + 1 bases for some c ≥ n: g₀ … g_{c−1} at indices
    0 … c−1, h₀ … h_{c−1} at c … 2c−1, and u at 2c; the proof runs over
    the first n g's and h's.
    @raise Invalid_argument if n > c. *)
val prove_table :
  ?h_factor:Scalar.t ->
  ?u_scale:Scalar.t ->
  Curve25519.Msm.Fixed.t ->
  Transcript.t ->
  a:Scalar.t array ->
  b:Scalar.t array ->
  proof

(** Largest vector length the range prover runs on {!prove_table}
    (256). The table prover costs O(n log n) table terms against
    {!prove}'s O(n) variable-base multiplications; in the [ipa-prove@n]
    rows of [bench group] its lead shrinks from 1.6-2.4x at n = 64 to
    about parity from 512 to 2048 and a loss at 4096. *)
val table_cutoff : int

(** [verify tr ~g ~h ~u ~p proof] checks the argument for commitment [p]
    with a single multi-scalar multiplication. *)
val verify :
  Transcript.t -> g:Point.t array -> h:Point.t array -> u:Point.t -> p:Point.t -> proof -> bool

(** [verification_scalars xs] for the challenges x₀ … x_{r−1} of an
    r-round proof: the inverses x_j⁻¹ and the 2^r scalars s_i = Π_j
    x_j^{±1}, the sign + where bit r−1−j of i is set. One field
    inversion and O(2^r) multiplications. *)
val verification_scalars : Scalar.t array -> Scalar.t array * Scalar.t array

(** Batch-verification form of [verify] — the IPA check is one point
    equation with batching coefficient [rho]. Coefficients for the
    generator vectors are returned by index ([push_g i c] ≙ add c·gᵢ,
    same for [push_h] and the single [push_u]); L/R cross terms go to
    [push] directly. The caller is responsible for pushing −ρ·P and for
    supplying the vector length [n] (a power of two matching the
    generator slice it will apply the indexed coefficients to).
    Transcript replay is byte-identical to [verify]; structural
    mismatches return [false] without absorbing. *)
val accumulate :
  rho:Scalar.t ->
  push_g:(int -> Scalar.t -> unit) ->
  push_h:(int -> Scalar.t -> unit) ->
  push_u:(Scalar.t -> unit) ->
  push:(Scalar.t -> Point.t -> unit) ->
  Transcript.t ->
  n:int ->
  proof ->
  bool

val size_bytes : proof -> int
