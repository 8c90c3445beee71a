(** The RiseFL client state machine (one object per client C_i).

    Per iteration the client: commits its update with the hybrid scheme
    (§4.3), verifies every peer's share and flags failures (§4.4.1),
    verifies the server's h vector and produces the proof bundle π
    (§4.4.2), and finally contributes its aggregated share (§4.5). *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type t

exception Server_misbehaving of string
(** Raised when the client catches the server deviating (bad h vector,
    more than m clear-share requests): the client quits the protocol. *)

(** [create setup ~id drbg] — [id] is 1-based. *)
val create : Setup.t -> id:int -> Prng.Drbg.t -> t

val id : t -> int
val public_key : t -> Point.t

(** [install_directory t pks] — the public-key bulletin (index j−1 holds
    client j's key). Must be called before any round, and again whenever
    a membership epoch rotates any key. *)
val install_directory : t -> Point.t array -> unit

(** {1 Key rotation}

    Generation g ≥ 1 key pairs derive from a {e key-only} DRBG fork of
    the client's root ([fork "rotate/g<g>"]): re-derivable at any stream
    position, in any process, so crash recovery and remote twins agree
    on rotated keys without them ever crossing the wire. *)

(** The client's current key generation (0 = the enrollment key). *)
val key_generation : t -> int

(** [rotation_proof t] — the continuity proof for rotating to generation
    [key_generation t + 1]: the next public key signed under the current
    (outgoing) secret key. Does {e not} adopt the new key — call
    {!rotate_to} once the rotation is accepted, so a rejected rotation
    never desyncs honest state. *)
val rotation_proof : t -> Membership.rotation

(** [rotate_to t ~gen] — adopt generation [gen] (idempotent; derives the
    key pair directly, so recovery can jump multiple generations).
    @raise Invalid_argument if [gen] is below the current generation. *)
val rotate_to : t -> gen:int -> unit

(** [commit_round ?topo ?cohort t ~round ~update] — the encoded update
    must satisfy the L2 bound; returns the round-1 message. The blind is
    VSSS-shared and sealed as this client's {!Wire.share_layout} under
    [topo] and [cohort] (default all n clients) says.
    @raise Invalid_argument if ‖update‖₂ > B or dimension mismatch. *)
val commit_round :
  ?topo:Risefl_topology.Topology.t ->
  ?cohort:int array ->
  t ->
  round:int ->
  update:int array ->
  Wire.commit_msg

(** [commit_round_unchecked] skips the local norm check — what a
    malicious client does when mounting a scaling attack. Only the
    probabilistic check stands between such an update and the aggregate. *)
val commit_round_unchecked :
  ?topo:Risefl_topology.Topology.t ->
  ?cohort:int array ->
  t ->
  round:int ->
  update:int array ->
  Wire.commit_msg

(** [receive_shares ?topo ?cohort t ~round ~msgs] — decrypt and verify
    the share addressed to this client inside each peer's commit
    message, at the position the dealer's {!Wire.share_layout} under
    [topo] and [cohort] (default all n clients) gives it; returns the
    flag list (step 1 of §4.4.1). Stores valid shares for aggregation.
    A dealer whose layout holds no share for this client (a non-neighbor
    under [topo]) is skipped — neither stored nor flagged, since this
    client could not verify it anyway. A dealer is flagged when its
    commit does not fit its layout (e.g. it pins a different topology
    digest) or the share fails to open or verify. *)
val receive_shares :
  ?topo:Risefl_topology.Topology.t ->
  ?cohort:int array ->
  t ->
  round:int ->
  msgs:Wire.commit_msg array ->
  Wire.flag_msg

(** [reveal_shares t ~requests] — rule-2 cooperation: return the clear
    shares this client generated for the given recipients (looked up by
    evaluation point, so it works for both topologies).
    @raise Server_misbehaving if more than m shares are requested.
    @raise Invalid_argument for a recipient this client never dealt to. *)
val reveal_shares : t -> requests:int list -> (int * Scalar.t) list

(** [accept_cleared_share t ~from ~value] — install a share that the
    server obtained in clear during rule 2 on this client's behalf. *)
val accept_cleared_share : t -> from:int -> value:Scalar.t -> unit

(** [proof_round ?predicate ?hs_tables t ~round ~s ~hs] — verify [hs]
    with VerCrt and build the proof bundle for the round's integrity
    predicate (default the plain L2 check). [hs_tables], when present
    and of length k+1, holds fixed-base window tables for the round's
    check bases h_t — the same bases serve every client of the round, so
    a caller driving several clients (the driver, the bench) builds them
    once and the per-client e* and Wf commitments get table-speed
    multiplications.
    @raise Server_misbehaving if the h vector fails verification.
    @raise Failure if this client's update cannot pass the probabilistic
    check (never happens for an in-bound update, up to the ε event). *)
val proof_round :
  ?predicate:Predicate.t ->
  ?hs_tables:Curve25519.Point.Table.table array ->
  ?cohort:int array ->
  t ->
  round:int ->
  s:Bytes.t ->
  hs:Point.t array ->
  Wire.proof_msg

(** [try_proof_round] — like {!proof_round} but returns [None] when the
    update cannot pass the check: the best a rational malicious client
    with an oversized update can do is attempt the proof and stay silent
    when the sampled projections betray it. [cohort] restricts the
    shared-seed derivation H(s, pk..) to the round's active cohort — it
    must match the server's epoch or the sampled matrix (and with it
    every verdict) diverges. *)
val try_proof_round :
  ?predicate:Predicate.t ->
  ?hs_tables:Curve25519.Point.Table.table array ->
  ?cohort:int array ->
  t ->
  round:int ->
  s:Bytes.t ->
  hs:Point.t array ->
  Wire.proof_msg option

(** The Fiat–Shamir transcript shape shared by prover and verifier for the
    proof bundle (exposed so the server can replay it). *)
val make_transcript : round:int -> client_id:int -> s:Bytes.t -> Zkp.Transcript.t

(** [agg_round t ~honest] — Σ of the stored shares from the honest set.
    @raise Invalid_argument if a share from an honest peer is missing
    (cannot happen when the server follows the protocol). *)
val agg_round : t -> honest:int list -> Wire.agg_msg

(** [agg_round_masked t ~round ~topo ~honest] — the k-regular
    aggregation message: this client's own blind r_i plus the signed
    pairwise masks toward every honest graph neighbor
    (ε_ij = +1 for i < j, −1 otherwise). Summed over all alive honest
    clients the masks cancel and Σ r_i remains; a dropout's dangling
    masks are unwound during neighborhood recovery. *)
val agg_round_masked :
  t -> round:int -> topo:Risefl_topology.Topology.t -> honest:int list -> Wire.agg_msg

(** [recovery_response t ~round ~topo ~dropout] — this client's
    contribution to recovering an agg-stage dropout d: the stored VSSS
    share of r_d (None if d's share never verified) and the pairwise
    mask m_{i,d}, which the server uses to unwind the dangling
    ε_id·m_id left in this client's masked sum.
    @raise Server_misbehaving if [dropout] is this client itself or not
    one of its graph neighbors. *)
val recovery_response :
  t ->
  round:int ->
  topo:Risefl_topology.Topology.t ->
  dropout:int ->
  Scalar.t option * Scalar.t
