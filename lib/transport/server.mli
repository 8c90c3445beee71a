(** The deployment server: runs {!Risefl_core.Driver.run_session} over
    real sockets via the driver's [?remote] seam, with the write-ahead log
    as the source of truth. This module holds transport state only — the
    ack table, the inbox and the broadcast log, each pruned to the round
    in flight and the one before it (all a reconnecting client can still
    need); the rounds, their bans and their resumption are the
    driver's.

    One {!serve} call runs the configured rounds against whatever clients
    connect. Per stage the server collects frames under a wall-clock
    deadline ({!Telemetry.Clock} is the timing authority) and then lets
    the quorum lifecycle decide; write-ahead ack discipline: a Submit is
    acknowledged only after the driver has appended it to the WAL, so an
    acked frame is never lost to a crash. A framing/envelope violation
    convicts the sender into C* (a synthetic undecodable frame walks the
    driver's normal conviction path) and closes the connection.

    Crash/restart: with a crash plan armed the server fsyncs the log and
    SIGKILLs its own process at the planned point — genuine kill -9
    semantics. A new [serve] on the same WAL rebuilds the (round, stage,
    sender, seq) ack table (retransmits of already-logged frames re-ack
    instead of reprocessing), and [run_session] resumes the log on entry:
    it finishes an interrupted round, or restores the server to the
    boundary after the last sealed one, then runs the remaining rounds —
    bit-identical to an uncrashed run on the same seed. *)

module Driver = Risefl_core.Driver

type config = {
  addr : Evloop.addr;
  setup : Risefl_core.Setup.t;
  seed : string;  (** the session seed — clients must use the same *)
  rounds : int;
  stage_deadline_s : float;
      (** per-stage collection deadline D; a client gives up on a
          broadcast after 2·D without an envelope from the server, which
          broadcasts [Alive] before each reveal or recovery sub-exchange
          (announced in [Hello_ok], like [rounds], [topology] and
          [churn]: the clients take these four from the server) *)
  wal_path : string option;
  crash : (int * Netsim.stage * Driver.crash_point) option;
      (** die (SIGKILL) at this point; requires [wal_path] *)
  stream : Risefl_core.Server.stream_cfg option;
      (** shards and batch size of the proof-verification stream; [None]
          is one shard whose single batch is the whole stage. Recovery
          replays logged proof frames through the same intake *)
  topology : Risefl_topology.Topology.mode;
      (** the session's share topology. Under [Kregular k] the server
          requires {!Proto.proto_version} from every client (old clients
          get a clean [Reject]), announces the degree in [Hello_ok], and
          recovers agg-stage dropouts through the [Recover_req]/
          [Recover_resp] neighborhood sub-exchange. *)
  churn : Risefl_core.Membership.spec option;
      (** elastic membership: derive each round's cohort from the seeded
          churn schedule ({!Driver.churn_cohort_for} over the session
          seed), collect frames only from the round's cohort, require
          {!Proto.proto_version} from every client, and answer a
          stale-epoch [Hello] with the typed [Reject_stale]. [None] runs
          the static full-universe membership. *)
}

type report = {
  outcomes : (int * Driver.round_outcome) list;  (** rounds run by this process *)
  resumed_round : int option;
      (** the round this process resumed the WAL at
          ({!Driver.session_report}[.resumed_round]) *)
  banned : int list;
  stream_stats : Risefl_core.Server.stream_stats option;
      (** fold/evict/flush counters from the last streamed round, if any *)
  cohort_sizes : (int * int) list;
      (** per elastic round, the active cohort size this process ran
          under (empty when churn is off) *)
}

val serve : ?log:(string -> unit) -> config -> report
(** Runs to completion (never returns on a planned crash — the process is
    killed). [log] receives progress lines (default: dropped), among
    them one per accepted [Hello] naming the client, the round in
    flight and the round it resumes from.
    @raise Invalid_argument before listening if the session record is
    one the clients could not decode ({!Proto.session_error}). *)
