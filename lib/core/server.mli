(** The RiseFL server (aggregator) state machine.

    The server never sees a plaintext update: it stores commitments,
    relays encrypted shares, co-runs the probabilistic integrity check of
    §4.4, maintains the malicious set C*, and finally aggregates the
    honest updates homomorphically (§4.5), recovering the coordinate sums
    with baby-step giant-step. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type t

val create : Setup.t -> Prng.Drbg.t -> t

(** Install the public-key bulletin. *)
val install_directory : t -> Point.t array -> unit

(** Clients flagged malicious so far this iteration (1-based ids). *)
val malicious : t -> int list

(** [mark_decode_failure t i] — add client [i] to C* because a frame it
    sent could not be decoded. A hostile byte on the wire costs the sender
    its honesty bit, never the server its round. Out-of-range ids (a
    spoofed link) are ignored. *)
val mark_decode_failure : t -> int -> unit

(** [convict t i ~reason] — add client [i] to C* for an identity-level
    offence (a rejected key-rotation proof). Out-of-range ids ignored. *)
val convict : t -> int -> reason:string -> unit

(** {2 Per-round cohorts}

    An elastic-membership round runs over a cohort ⊆ 1..n. Inactive
    clients are absent, not guilty: they owe no frames, never join C*
    for silence, drop out of {!honest}, and the shared seed binds only
    the active directory entries. The fixed-set path keeps everyone
    active. *)

(** [set_active t cohort] — install the round's cohort.
    {!begin_round} does this itself; call it directly only on replay
    paths that need the cohort installed {e before} [restore]. *)
val set_active : t -> int array -> unit

val is_active : t -> int -> bool

(** The server's validated view of this round's commit messages
    (structurally invalid entries are [None]) — what it forwards to
    clients for share verification. *)
val round_commits : t -> Wire.commit_msg option array

(** [begin_round ?topo ?cohort t ~round ~commits] — store the round's
    commit messages. [cohort] defaults to all n clients. Cohort members
    that sent nothing (None) are marked malicious immediately; commits
    from outside the cohort are dropped without conviction. A commit
    whose shape does not fit its sender's {!Wire.share_layout} under
    [topo] (one sealed share per recipient, a check string of the
    layout's threshold, the layout's digest) is marked malformed and
    dropped. *)
val begin_round :
  ?topo:Risefl_topology.Topology.t ->
  ?cohort:int array ->
  t ->
  round:int ->
  commits:Wire.commit_msg option array ->
  unit

(** [process_flags t ~flags ~reveal] — §4.4.1: apply flag rules 1 and 2.
    [reveal i js] asks client i for its clear shares to recipients [js]
    (rule 2); return [None] if the client refuses. Returns cleared shares
    to forward: (flagger, dealer, value) triples. *)
val process_flags :
  t ->
  flags:Wire.flag_msg option array ->
  reveal:(int -> int list -> (int * Scalar.t) list option) ->
  (int * int * Scalar.t) list

(** [prepare_check t] — pick the random s, derive the shared matrix A and
    precompute h (the O(kd·log M / log d·log p) preparation of Table 1).
    Returns (s, h) for broadcast. *)
val prepare_check : t -> Bytes.t * Point.t array

(** [verify_proofs ?predicate ?jobs t ~round ~proofs] — full §4.4.2
    verification for every client: e*-consistency against y_i (batch
    check), ρ, τ, σ, μ (plus the w-linkage material under the cosine
    predicate). Clients whose proof fails (or is absent) are added to C*.

    Every verifier equation of every client is folded into a single
    random-linear-combination sum: each equation contributes
    ρ_j·(LHS − RHS) with an independent coefficient ρ_j drawn from a DRBG
    forked by (round, client), scaled by a per-client outer coefficient
    σ_i, and the round is accepted by ONE {!block_sum} returning the
    identity. On failure the per-client blocks are bisected to recover
    exact C* attribution. A batch containing a cheating equation
    survives with probability ≤ (#equations)/ℓ ≈ 2⁻²⁴⁰ over the
    coefficient draw.

    This is the streaming pipeline below run as one batch:
    {!stream_begin} with one shard and a batch of n, one {!stream_feed}
    per present proof, then {!stream_finish}. It therefore also installs
    the running sums {!aggregate} reads, and evicts the commits' decoded
    bulk.

    Clients accumulate in parallel on [jobs] domains (default
    [Parallel.default_jobs ()]); the accepted/rejected sets are identical
    for every job count — all per-client randomness (VerCrt challenges,
    RLC coefficients) is forked from the server key by (round, id), not
    drawn from a shared stream. *)
val verify_proofs :
  ?predicate:Predicate.t ->
  ?jobs:int ->
  t ->
  round:int ->
  proofs:Wire.proof_msg option array ->
  unit

(** [verify_proofs_naive ?predicate ?jobs t ~round ~proofs] — the
    reference oracle for {!verify_proofs}: every verifier equation
    evaluated directly, client by client. Same C* as {!verify_proofs}
    (w.h.p.), several times slower, and it installs no streamed sums, so
    {!aggregate} cannot follow it. Kept for differential tests and the
    verify bench. *)
val verify_proofs_naive :
  ?predicate:Predicate.t ->
  ?jobs:int ->
  t ->
  round:int ->
  proofs:Wire.proof_msg option array ->
  unit

(** [block_sum ?jobs tables blocks] — the group element a set of client
    blocks sums to; the batched verifier judges every batch, and every
    bisection step, by it. A block is a client's folded equations: terms
    [(s, P)] and a coefficient vector over the bases of [tables] (the
    range-proof generators, {!Zkp.Range_proof.tables}, in the layout of
    {!Zkp.Range_proof.gen_vector}). The terms of every block run as one
    {!Curve25519.Msm.msm}; the coefficient vectors are summed per base
    and run as one {!Curve25519.Msm.Fixed.msm}. For bases in the
    prime-order subgroup this equals {!Curve25519.Msm.msm} over every
    term with each coefficient as a term of its own. *)
val block_sum :
  ?jobs:int ->
  Curve25519.Msm.Fixed.t ->
  ((Scalar.t * Point.t) array * Scalar.t array) array ->
  Point.t

(** The honest list H = cohort \ C* (1-based ids). *)
val honest : t -> int list

(** {2 Streaming verification pipeline}

    The server's one batched verifier. It folds each proof {e as it
    arrives}: frames buffer per shard, and a full batch is judged by one
    {!block_sum} over its clients' complete blocks (honest blocks sum to
    the identity individually, so any batch of complete blocks is
    independently checkable), bisected on failure. Survivors fold their y
    into a running aggregate and their check string into a running
    combined check, spill their y compressed (32 B/point) for possible
    late-conviction subtraction, and then have their decoded bulk
    {e evicted} — bounding resident decoded state to O(d + batch·d)
    regardless of n.

    Sharding splits clients across [shards] independent batches (client
    i lands in shard (i−1) mod shards); {!stream_finish} merges their
    running sums in ascending shard order. Results are deterministic in
    (jobs, shards, batch, arrival order): all per-client randomness is
    forked by (round, id) and the group arithmetic is exact and
    commutative. (Sole caveat: two dishonest blocks cancelling
    {e exactly} — probability ≈ 2⁻²⁵² per pair — are accepted when they
    share a batch and convicted when they do not.) *)

(** Streaming knobs: [shards] independent batches, flush a shard after
    [batch] buffered frames. *)
type stream_cfg = { shards : int; batch : int }

(** [stream_cfg ?shards ?batch ()] — validated constructor (both >= 1);
    defaults [shards:1] [batch:64]. *)
val stream_cfg : ?shards:int -> ?batch:int -> unit -> stream_cfg

(** In-progress streaming verification for one round. *)
type stream

(** Counters from the last streamed round (see {!stream_stats}). *)
type stream_stats = {
  folded : int;  (** proof frames that reached a batch MSM *)
  evicted : int;  (** commit records whose decoded bulk was dropped *)
  flushes : int;  (** batch MSM evaluations *)
  peak_batch : int;  (** largest batch at any flush *)
}

(** [stream_begin ?predicate ?jobs t ~round ~cfg] — start streaming the
    round's proofs. Must be called after {!begin_round} (and the check
    preparation); feeds then arrive in any order via {!stream_feed}. *)
val stream_begin :
  ?predicate:Predicate.t -> ?jobs:int -> t -> round:int -> cfg:stream_cfg -> stream

(** [stream_feed st ~sender msg] — fold one arrived proof frame. First
    frame per sender wins (duplicates ignored, matching the transport's
    dedup); frames from clients already in C* are dropped. Flushes the
    sender's shard when its batch fills.
    @raise Invalid_argument after {!stream_finish}. *)
val stream_feed : stream -> sender:int -> Wire.proof_msg -> unit

(** [stream_finish st] — drain partial batches (shard order), mark
    clients that never fed as malicious ("no proof"), merge the shards'
    running sums and install them for {!aggregate} and
    {!aggregate_kregular}. Idempotent. *)
val stream_finish : stream -> unit

(** Cumulative seconds spent flushing and finishing: the proof stage's
    server verify time. *)
val stream_elapsed_s : stream -> float

(** Stats from the last {!stream_finish} on this server, if any. *)
val stream_stats : t -> stream_stats option

(** [ban t i] — carry client [i]'s C* membership across rounds: every
    subsequent {!begin_round} starts with [i] already malicious. The
    session loop calls this with each completed round's C*. Out-of-range
    ids are ignored. *)
val ban : t -> int -> unit

(** Clients currently banned at session scope (1-based ids). *)
val banned : t -> int list

(** [snapshot t] — everything recovery needs to resume bit-identically:
    C* (round-scope and session-scope), the validated commits, the last
    check string, and the root-DRBG position (bytes drawn). Written to the
    write-ahead log at round boundaries. *)
val snapshot : t -> Wire.server_snapshot

(** [restore t snap] — restore a {e freshly created} server (same setup,
    same seed) to the snapshot: fast-forwards the root DRBG to the
    snapshotted position and re-derives the sampling matrix/check bases
    from the snapshotted s. After [restore], every draw, verdict and
    aggregate matches the uncrashed server byte for byte.
    @raise Invalid_argument if the snapshot belongs to a different
    parameter set or the server's DRBG has already advanced past the
    snapshot position. *)
val restore : t -> Wire.server_snapshot -> unit

(** Why an aggregation attempt could not produce a result. Typed (rather
    than an exception) so the round lifecycle can degrade gracefully:
    losing quorum ends the round with a verdict, not a crash. *)
type agg_error =
  | Insufficient_quorum of { valid : int; needed : int }
      (** fewer than t = m+1 valid aggregated shares survived *)
  | No_check_string  (** no honest dealer's commit survived to check against *)
  | Coordinate_out_of_range of int
      (** BSGS could not solve this coordinate (sum outside ± n·2^(b-1)) *)
  | Aggregate_mismatch
      (** k-regular path only: the recovered blind R fails the global
          commitment check g^R = Π z_i — some masked sum was tampered
          with (not per-client attributable, unlike VSSS share sums) *)

val agg_error_to_string : agg_error -> string

(** [aggregate t ~agg_msgs] — verify each aggregated share against the
    summed check strings, recover r = Σ r_i, and solve each coordinate
    with BSGS. The sums come from this round's finished proof stream
    ({!verify_proofs} or {!stream_finish}), less any client convicted
    since. Returns the aggregated encoded update Σ_{i∈H} u_i, or a typed
    error; never raises on hostile input.
    @raise Invalid_argument if no proof stage was verified this round. *)
val aggregate : t -> agg_msgs:Wire.agg_msg option array -> (int array, agg_error) result

(** [aggregate_kregular t ~topo ~honest ~recover ~agg_msgs] — the
    k-regular aggregation round. [honest] is the honest list the server
    broadcast before the agg exchange (the set clients masked toward);
    [agg_msgs] holds each client's masked sum
    m_i = r_i + Σ_{j∈N(i)∩honest} ε_ij·mask_ij. For every honest client
    whose frame is missing, [recover ~dropout ~responders] runs the
    neighborhood sub-exchange over the dropout's alive neighbors and
    returns (responder, (share of r_d if held, pairwise mask)) pairs —
    masks are always unwound from the sum; r_d is re-interpolated when
    at least the neighborhood threshold of shares verify against the
    dropout's retained check string, otherwise the dropout's update is
    excluded (removed from the product and the combined check — not
    convicted). Like {!aggregate} it reads the finished proof stream's
    running sums, subtracting excluded and late-convicted clients via the
    spill. The recovered R is checked against the combined commitment
    (Π z_i) before decoding; a mismatch — any tampered masked sum —
    yields [Aggregate_mismatch].
    @raise Invalid_argument if no proof stage was verified this round. *)
val aggregate_kregular :
  t ->
  topo:Risefl_topology.Topology.t ->
  honest:int list ->
  recover:(dropout:int -> responders:int list -> (int * (Scalar.t option * Scalar.t)) list) ->
  agg_msgs:Wire.agg_msg option array ->
  (int array, agg_error) result
