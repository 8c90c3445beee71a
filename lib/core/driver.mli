(** In-memory orchestration of RiseFL rounds.

    Wires n {!Client}s and one {!Server} together, injects configurable
    malicious behaviours, and reports the per-stage timings and
    per-client communication volumes that Tables 1–2 and Figures 6–7 of
    the paper measure. There is one round engine with two entry points,
    {!run_round_outcome} (a fresh round) and {!recover_round} (a round
    resumed from its write-ahead log), and one loop, {!run_session}.

    Over a fault-injected link ([~endpoint:(Netsim.endpoint net)]) every
    client → server frame can be dropped, delayed, duplicated, truncated,
    flipped or replayed. An undecodable frame before aggregation costs
    the sender its honesty bit (it joins the malicious set); an
    undecodable or missing aggregation frame costs it only its share, as
    the honest set is fixed by then; other late/missing frames make it a
    dropout. Every round either completes or ends with a typed
    {!round_outcome} — no fault plan can make an exception escape.

    Durability: with a {!Round_log.t} write-ahead log armed, every
    accepted frame is logged (and fsynced) before the server processes
    it, and a seeded crash plan can kill the server at any stage
    boundary or mid-stage frame index. {!recover_round} replays the log
    and finishes the round with an aggregate and C* bit-identical to the
    uncrashed run; {!run_session} chains rounds, carries C* forward as
    bans, recovers in-loop, and resumes a log left by an earlier process
    on entry. *)

(** What a client does this iteration. *)
type behaviour =
  | Honest
  | Oversized of float
      (** submit c·u (c > 1), bypassing the local norm check; the client
          still tries to pass the probabilistic check, succeeding with
          probability F(c) — the attack model of §5.1 *)
  | Bad_share_to of int list  (** corrupt the encrypted shares to these recipients *)
  | False_flags of int list  (** flag these (honest) clients in round 2 *)
  | Bad_agg_share  (** send a corrupted aggregated share in round 3 *)
  | Drop_out  (** send no messages at all *)
  | Agg_silent
      (** participate honestly through the proof stage, then send no
          aggregation frame — the agg-stage dropout whose blind the
          k-regular neighborhood recovery re-interpolates *)

type stats = {
  aggregate : int array option;  (** Σ_{i∈H} u_i, or None if aggregation failed *)
  failure : Server.agg_error option;  (** why aggregation failed, when it did *)
  flagged : int list;  (** the final C* *)
  decode_failures : int list;
      (** clients whose frames failed to decode this round (⊆ flagged) *)
  (* per-stage wall-clock seconds, averaged over honest clients *)
  client_commit_s : float;
  client_share_verify_s : float;
  client_proof_s : float;
  server_prep_s : float;
  server_verify_s : float;
  server_agg_s : float;
  (* communication, bytes *)
  client_up_bytes : int;  (** per honest client: everything it sends *)
  client_down_bytes : int;  (** per honest client: everything it receives *)
}

(** How a round ended under the quorum lifecycle: the server proceeds
    as long as at least t = m+1 clients survive each stage, and otherwise
    returns a verdict instead of raising. *)
type round_outcome =
  | Completed of stats
      (** the round ran to the end (aggregation itself may still have
          failed benignly — see [stats.failure]) *)
  | Aborted_insufficient_quorum of { stage : string; survivors : int; needed : int }
      (** fewer than t = m+1 clients survived the named stage *)
  | Aborted_decode of int list
      (** quorum was lost and undecodable frames from these clients
          contributed to the loss *)

val outcome_to_string : round_outcome -> string

(** A persistent deployment: clients keep their DH key pairs (and the
    public-key bulletin) across training rounds. *)
type session

(** [create_session setup ~seed] — generate all key pairs and exchange
    the public-key directory. Deterministic in [seed]. *)
val create_session : Setup.t -> seed:string -> session

(** The session's current server (replaced on crash recovery). *)
val session_server : session -> Server.t

(** The session's clients (index i−1 holds client i). A remote client
    process builds the same session from the shared seed and drives only
    its own entry — the per-client DRBGs are independent forks, so the
    untouched siblings never advance. *)
val session_clients : session -> Client.t array

(** {1 Crash plan} *)

(** Where in a stage the server dies: before intake ([Stage_start]),
    immediately before accepting the i-th frame of the stage
    ([Stage_frame i] — write-ahead, so the frame is {e not} logged), or
    after the stage completed ([Stage_end]). *)
type crash_point = Stage_start | Stage_frame of int | Stage_end

(** The simulated server crash: raised out of the round at the planned
    point, after fsyncing the WAL. *)
exception Server_crashed of { stage : Netsim.stage; at : crash_point }

val crash_of_string : string -> (Netsim.stage * crash_point, string) result
(** Parse ["STAGE:STEP"] — stage ∈ commit|flag|proof|agg, step ∈
    start|end|frame-index (e.g. ["proof:start"], ["agg:2"]). *)

val crash_to_string : Netsim.stage * crash_point -> string

val seeded_crashes :
  seed:string -> n:int -> max_step:int -> (Netsim.stage * crash_point) list
(** [seeded_crashes ~seed ~n ~max_step] — n mid-stage crash points drawn
    from independent DRBG forks of [seed] (scheduled like Netsim faults:
    a sweep is a pure function of the seed). *)

(** {1 Elastic membership}

    With [?epoch] a round runs over that epoch's cohort instead of the
    full universe: the epoch is applied first (clients catch up to their
    rotated key generations, the post-rotation directory is installed
    everywhere, rotation convicts join the malicious set), the share
    graph and the
    shared seed bind exactly the active cohort, absent clients owe
    nothing and convict nothing, and — under a WAL — the epoch record is
    logged {e before} [Round_start] so recovery re-enters the round under
    the identical cohort. A full-cohort epoch produces the fixed-set
    bytes bit for bit. *)

exception Epoch_mismatch of string
(** A decoded-valid epoch that contradicts the session: wrong universe
    size, or a directory entry the session's key derivations cannot
    reach. Raised rather than running a round under a wrong cohort. *)

val apply_epoch : session -> Membership.epoch -> unit
(** Bring the session up to [epoch]'s directory: rotate each client to
    its epoch key generation (generation keys are key-only DRBG forks,
    reachable by any process at any time), check the derived public keys
    against the epoch directory (raising {!Epoch_mismatch} on any
    contradiction) and install it in every client and the server.
    Idempotent — recovery re-applies the epoch it crashed under. *)

val effective_topology :
  Setup.t -> cohort:int array -> Risefl_topology.Topology.mode -> Risefl_topology.Topology.mode
(** The topology a round actually runs under: a k-regular request whose
    degree a shrunken cohort cannot sustain is re-derived for the cohort
    that showed up (clamped to [cohort-1], floor 2) and the
    ["topology.degree_clamped"] counter is bumped. {!round_view} applies
    it, so every process derives the same share graph. *)

(** {1 Client steps}

    The one place a client and its {!behaviour} become a message: the
    in-process round and the socket client both run these steps over the
    same {!round_view}. A step returns [None] when the behaviour sends
    nothing (outside the cohort, [Drop_out], [Agg_silent], convicted
    before aggregation, an update that cannot pass the check) or when
    the client refuses with {!Client.Server_misbehaving}. *)

(** A round's cohort (sorted ids; 1..n without an epoch), membership by
    index (i−1 for client i), share graph ([None] = all-to-all) and the
    {!Wire.share_layout} of each dealer's commit under them. *)
type round_view = {
  round : int;
  cohort : int array;
  in_cohort : bool array;
  topo : Risefl_topology.Topology.t option;
  layout : int -> Wire.share_layout;  (** [layout dealer] *)
}

val round_view :
  ?epoch:Membership.epoch -> ?topology:Risefl_topology.Topology.mode -> session -> round:int ->
  round_view
(** Apply [epoch] ({!apply_epoch}), then derive the round's cohort and
    its graph from [topology] (default [Full]) via {!effective_topology}
    and {!Risefl_topology.Topology.plan}. *)

val commit_step :
  round_view -> behaviour -> Client.t -> update:int array -> Wire.commit_msg option
(** [Oversized] skips the norm check; [Bad_share_to ids] corrupts the
    sealed shares of those recipients that the dealer's
    {!round_view.layout} lists (any other id is a no-op). *)

val flag_step :
  round_view -> behaviour -> Client.t -> commits:Wire.commit_msg array -> Wire.flag_msg option
(** [False_flags ids] merges [ids] into the suspects. *)

val proof_step :
  ?predicate:Predicate.t -> ?hs_tables:Curve25519.Point.Table.table array -> round_view ->
  behaviour -> Client.t -> s:Bytes.t -> hs:Curve25519.Point.t array -> Wire.proof_msg option

val agg_step :
  round_view -> behaviour -> Client.t -> honest:int list -> malicious:int list -> Wire.agg_msg option
(** [Bad_agg_share] adds one to [r_sum]. *)

val reveal_step :
  round_view -> behaviour -> Client.t -> requests:int list ->
  (int * Curve25519.Scalar.t) list option

val recovery_step :
  round_view -> behaviour -> Client.t -> dropout:int ->
  (Curve25519.Scalar.t option * Curve25519.Scalar.t) option
(** [None] on an all-to-all round. *)

(** {1 Remote seam}

    With [?remote], the driver runs the {e server half only} of a round:
    no client messages are computed in-process. [r_collect] gathers each
    stage's frames off a real transport and pushes them through the
    driver's write-ahead intake — [push] appends (and fsyncs) to the WAL
    before returning, so the transport may acknowledge a frame only after
    [push] comes back (and a {!Server_crashed} raised inside [push] means
    the frame was neither logged nor acked). The [r_*] broadcast hooks
    fire at the exact points an in-process run hands data to its local
    clients. Callers pass dummy [updates]/[behaviours] (they gate only
    the skipped local-compute paths). *)
type remote = {
  r_collect :
    round:int ->
    stage:Netsim.stage ->
    already:int list ->
    push:(int * int * Bytes.t -> unit) ->
    unit;
  r_commits : round:int -> Bytes.t array -> unit;
  r_cleared : round:int -> (int * int * Curve25519.Scalar.t) list -> unit;
  r_check : round:int -> Bytes.t -> unit;
  r_honest : round:int -> honest:int list -> malicious:int list -> unit;
  r_result : round:int -> round_outcome -> unit;
  r_reveal : dealer:int -> requests:int list -> (int * Curve25519.Scalar.t) list option;
  r_recover :
    round:int ->
    dropout:int ->
    responders:int list ->
    (int * (Curve25519.Scalar.t option * Curve25519.Scalar.t)) list;
      (** k-regular dropout recovery sub-exchange: ask each alive graph
          neighbor of [dropout] for (its VSSS share of the dropout's
          blind if held, the pairwise agg mask toward the dropout) *)
}

(** [run_round_outcome session ~updates ~behaviours ~round] — one full
    protocol iteration (commit → flags → probabilistic check →
    aggregation) over the session's long-lived clients, under the
    deadline/quorum lifecycle: the server abandons the round as soon as
    fewer than t = m+1 clients survive a stage and returns the typed
    verdict (sealing the WAL with a [Round_end] record). No fault plan
    makes an exception escape, apart from a planned {!Server_crashed}.

    With [serialize] every message round-trips through the binary wire
    codecs, exactly as over a network. The round's link is one of
    [endpoint] (any {!Netsim.Transport_intf.endpoint}, e.g.
    [Netsim.endpoint net]: frames cross its fault plan), [reliable]
    (unacked frames retransmit under exponential backoff with
    receive-side dedup) or [remote] (a real transport's collect and
    broadcast hooks, see {!type-remote}); each implies [serialize]. With
    [wal] every accepted frame is logged write-ahead; with [crash] the
    server dies at the planned point ({!Server_crashed} escapes — catch
    it and {!recover_round}).

    The proof stage streams into the server's verifier
    ({!Server.stream_begin}): each full batch is judged by one RLC MSM
    and its decoded bulk evicted. [stream] sets the shards and batch
    size; the default is one shard whose single batch is every proof.
    Verdicts, C* and the aggregate are identical for every (jobs, shards,
    batch, arrival-order) combination.

    [topology] (default [Full]) selects the share graph: [Kregular k]
    derives a seeded k-regular graph from (session seed, round, cohort)
    via {!Risefl_topology.Topology.plan}, shares each blind only to graph
    neighbors, masks the agg stage pairwise and recovers agg-stage
    dropouts from their neighborhoods; [Kregular (n-1)] normalizes to the
    bit-identical all-to-all path. One-shot callers pass
    [create_session setup ~seed]. *)
val run_round_outcome :
  ?predicate:Predicate.t ->
  ?serialize:bool ->
  ?endpoint:Netsim.Transport_intf.endpoint ->
  ?reliable:Reliable.t ->
  ?remote:remote ->
  ?wal:Round_log.t ->
  ?crash:Netsim.stage * crash_point ->
  ?stream:Server.stream_cfg ->
  ?epoch:Membership.epoch ->
  ?topology:Risefl_topology.Topology.mode ->
  session ->
  updates:int array array ->
  behaviours:behaviour array ->
  round:int ->
  round_outcome

val completed_exn : round_outcome -> stats
(** The stats of a completed round.
    @raise Failure with {!outcome_to_string} on an abort. *)

(** [recover_round session ~records ~updates ~behaviours ~round] —
    finish a crashed round from its write-ahead log. Rebuilds a fresh
    server from the session seed, restores the last snapshot logged at
    or before [round], and replays every round logged after that
    snapshot (its check string is redrawn and checked against the
    logged one, and its ban rule applied), so a round whose own snapshot
    was torn off still starts from the right boundary. It then replays
    the round's logged frames, re-enters delivery for the unlogged
    senders only and runs the remaining stages. The check string, proof
    verdicts, aggregate and C* are bit-identical to the uncrashed run. Pass the same [wal] to keep
    logging the recovered tail, and the same [stream] config to resume a
    streamed round — the logged proof frames replay straight through the
    streaming intake, so a crash mid-stream resumes the fold. An elastic
    round recovers under its [epoch]: pass the same one, or leave it out
    and the crashed round's logged [Epoch] record (written before its
    [Round_start]) is used. *)
val recover_round :
  ?predicate:Predicate.t ->
  ?endpoint:Netsim.Transport_intf.endpoint ->
  ?reliable:Reliable.t ->
  ?remote:remote ->
  ?wal:Round_log.t ->
  ?stream:Server.stream_cfg ->
  ?epoch:Membership.epoch ->
  ?topology:Risefl_topology.Topology.mode ->
  session ->
  records:Round_log.record list ->
  updates:int array array ->
  behaviours:behaviour array ->
  round:int ->
  round_outcome

(** {1 Multi-round sessions} *)

(** Totals over every epoch's standing deltas. *)
type churn_counts = { joined : int; left : int; rejoined : int; rotated : int }

type session_report = {
  rounds_attempted : int;
  rounds_completed : int;
  round_outcomes : (int * round_outcome) list;  (** in round order *)
  final_banned : int list;  (** C* accumulated across all rounds *)
  crashes_recovered : int;
  resumed_round : int option;
      (** the round this call resumed the [wal] at: the unsealed round it
          finished, or the round after the last sealed one. [None] when
          the log was empty or absent. *)
  cohort_sizes : (int * int) list;
      (** per round, the active cohort size (n for epoch-less rounds) *)
  churn : churn_counts;
}

(** [run_session ?crash session ~updates_for ~behaviours ~rounds] — run
    quorum-aware rounds up to [rounds] over one session. [updates_for r]
    is the round-r update matrix. A round that seals an aggregate bans
    its C*: those clients start every later round banned.

    Resume on entry: with a [wal], the log is read first and the loop
    starts at {!Round_log.resume_point} — the unsealed round, finished
    with {!recover_round}, or the round after the last sealed one, which
    runs fresh on a server restored to that boundary (every sealed
    round's check string redrawn and its bans re-applied). An empty log
    starts at round 1. The report covers only the rounds this call ran;
    a log already past [rounds] runs none.
    Without [remote] the session's own clients must stand at the resume
    round — a fresh session can resume only round 1, since its clients
    restart their DRBGs at genesis.
    @raise Invalid_argument naming the round otherwise.

    [crash], if given, is [(round, stage, point)]: the server dies
    there. With a [wal] the loop syncs, replays the log and resumes the
    round through the same step. Under [remote], or without a [wal],
    {!Server_crashed} escapes: a remote server's restart resumes on
    entry. [cohort_for r], if given, freezes round r's membership epoch
    before the round starts ({!churn_cohort_for} derives one from a
    seeded schedule); a crashed elastic round recovers under the same
    epoch. *)
val run_session :
  ?predicate:Predicate.t ->
  ?serialize:bool ->
  ?endpoint:Netsim.Transport_intf.endpoint ->
  ?reliable:Reliable.t ->
  ?remote:remote ->
  ?wal:Round_log.t ->
  ?crash:int * Netsim.stage * crash_point ->
  ?stream:Server.stream_cfg ->
  ?cohort_for:(int -> Membership.epoch option) ->
  ?topology:Risefl_topology.Topology.mode ->
  session ->
  updates_for:(int -> int array array) ->
  behaviours:behaviour array ->
  rounds:int ->
  session_report

(** [churn_cohort_for session ~spec ~rounds] — the seeded-churn cohort
    hook for {!run_session}: one {!Membership.t} advanced through
    [Membership.schedule ~seed:(session seed) spec], memoized per round
    (crash recovery re-asks for the crashed round and gets the identical
    epoch back). Rotation proofs are signed by the session's own clients
    with their current keys, so epochs must be consumed in round order
    interleaved with the rounds — exactly what {!run_session} does. *)
val churn_cohort_for :
  session -> spec:Membership.spec -> rounds:int -> int -> Membership.epoch option

(** [honest_all n] — convenience: n honest behaviours. *)
val honest_all : int -> behaviour array
