(** Bulletproofs aggregated range proofs (Bünz et al. 2018, §4.2–4.3) —
    the paper's GenPrfBd/VerPrfBd.

    Proves that each of m committed values lies in [0, 2^bits), with a
    proof of size O(log(m·bits)) thanks to the inner-product argument.
    RiseFL uses this twice per client per round: the σ proof that each
    projection ⟨a_t, u_i⟩ avoids squaring overflow, and the μ proof that
    B₀ − Σ_t ⟨a_t,u_i⟩² is non-negative (§4.4.2).

    [bits] must be a power of two in [2, 128]; the number of values is
    padded internally to a power of two with zero-valued commitments, so
    any m works. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

(** The prover's fixed-base tables of a generator set, built on first
    use: read them through {!tables}. *)
type tables

(** Generator set. [gv]/[hv] must be at least as long as the largest
    bits·m_padded a proof will use; [u] binds the inner product. Derive
    once per deployment via {!make_gens}, the only way to make one, so
    the tables always match the generators. *)
type gens = private { gv : Point.t array; hv : Point.t array; u : Point.t; tables : tables }

(** [make_gens ~label n] derives 2n+1 independent generators. It does
    not build the tables. *)
val make_gens : label:string -> int -> gens

(** [tables gens] — the {!Curve25519.Msm.Fixed} tables of the first
    c = min({!Ipa.table_cutoff}, |gv|) g's and h's and of u, in the
    layout {!Ipa.prove_table} reads. The first call builds them (3840
    bytes per base, off the OCaml heap: 0.50 MB at |gv| = 64, 0.99 MB
    at 128, 1.97 MB at the cutoff); later calls return the same tables.
    {!prove} calls it when its vector length is at most the cutoff, and
    the server's batched verifier once per batch; {!make_gens}, {!verify}
    and {!accumulate} never do. Safe from any domain,
    including inside a {!Parallel} region: the build runs under a
    mutex. *)
val tables : gens -> Curve25519.Msm.Fixed.t

(** [gen_vector gens] — a zero coefficient per base of [tables gens],
    in the same layout (2c + 1 entries), for {!accumulate}. It does not
    build the tables. *)
val gen_vector : gens -> Scalar.t array

type proof = {
  a : Point.t;
  s : Point.t;
  t1 : Point.t;
  t2 : Point.t;
  t_hat : Scalar.t;
  tau_x : Scalar.t;
  mu : Scalar.t;
  ipa : Ipa.proof;
}

(** [prove ?g_table ?h_table drbg tr ~gens ~g ~h ~bits ~values ~blinds] —
    [values.(j)] must be a non-negative bigint < 2^bits committed as
    g^{v_j}·h^{γ_j} with [blinds.(j)] = γ_j. The commitments themselves
    are recomputed and absorbed, so prover and verifier bind the same
    statement. [g_table]/[h_table] are optional fixed-base window tables
    for [g]/[h] used for the value, T1 and T2 commitments (and, with
    bits·m_padded at most {!Ipa.table_cutoff}, for S's h term, while
    S's vector part and the IPA run on {!tables}).
    @raise Invalid_argument on bad shapes, bits, or out-of-range values. *)
val prove :
  ?g_table:Point.Table.table ->
  ?h_table:Point.Table.table ->
  Prng.Drbg.t ->
  Transcript.t ->
  gens:gens ->
  g:Point.t ->
  h:Point.t ->
  bits:int ->
  values:Bigint.t array ->
  blinds:Scalar.t array ->
  proof

(** [verify tr ~gens ~g ~h ~bits ~commitments proof]. *)
val verify :
  Transcript.t ->
  gens:gens ->
  g:Point.t ->
  h:Point.t ->
  bits:int ->
  commitments:Point.t array ->
  proof ->
  bool

(** Batch-verification form of [verify]: draws one coefficient via [rho]
    per point equation (the τ-consistency check and the folded IPA check)
    and adds every term of ρ·(LHS − RHS) to the caller's sum; the h'ᵢ =
    hᵢ^{y^{-i}} reindexing and u_x = u^w are folded into scalar
    coefficients, so no point multiplication happens here at all. The
    coefficients of the generators that {!tables} holds are added into
    [gen] (a {!gen_vector} of [gens], which several proofs may share:
    entry l is the coefficient of base l of [tables gens]); every other
    term, and the generators past {!Ipa.table_cutoff}, go through [push].
    Returns [false] only on structural mismatch (same cases and
    transcript behavior as [verify]); the equations themselves are
    decided when the caller evaluates its sum.
    @raise Invalid_argument if [gen] is not as long as {!gen_vector}. *)
val accumulate :
  rho:(unit -> Scalar.t) ->
  push:(Scalar.t -> Point.t -> unit) ->
  gen:Scalar.t array ->
  Transcript.t ->
  gens:gens ->
  g:Point.t ->
  h:Point.t ->
  bits:int ->
  commitments:Point.t array ->
  proof ->
  bool

val size_bytes : proof -> int
