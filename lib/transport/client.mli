(** The deployment client: one process driving one {!Risefl_core.Client}
    state machine against a {!Server} over a socket.

    Bit-identity with the in-process run comes from construction: the
    process builds the {e same} {!Risefl_core.Driver.session} from the
    shared seed (the per-client DRBGs are independent forks, so the
    untouched siblings never advance), derives its per-round update with
    {!Updates.make}, and builds every message with the driver's client
    steps over the round's {!Risefl_core.Driver.round_view}.

    Robustness: connect (and reconnect after any socket error) retries
    under jittered exponential backoff; every stage submit retransmits
    until the server's write-ahead ack arrives; per-wait deadlines
    degrade to the quorum path (the round's [Result] is accepted in place
    of a missed broadcast, and a fully silent server ends the round
    locally instead of hanging). Framed submits are cached per (round,
    stage), reveal answers per (round, requests) and recovery answers per
    (round, dropout), so a reconnect or a restarted server gets identical
    bytes. *)

type config = {
  addr : Evloop.addr;
  setup : Risefl_core.Setup.t;
  seed : string;  (** must equal the server's session seed *)
  id : int;  (** this client's id, 1-based *)
  rounds : int;
  d : int;
  bound : float;
  behaviours : Risefl_core.Driver.behaviour array;
      (** the session's behaviour vector, as the in-process [round]
          builds it: this process acts out its own entry, and the update
          derivation scales the [Oversized] ones (shared knowledge) *)
  deadline_s : float;  (** per-wait deadline before degrading *)
  loris : bool;  (** write submits one byte at a time (testing) *)
  die_at : (int * Netsim.stage) option;
      (** exit the process just before submitting this stage (testing) *)
  max_connect_attempts : int;
  topology : Risefl_topology.Topology.mode;
      (** locally configured share topology; the server's [Hello_ok]
          announcement overrides it, so the cohort always derives one
          graph. Under a k-regular round the client commits wire-v2
          (neighbor shares + digest), masks its agg sum pairwise, and
          answers [Recover_req] from that round's view. *)
  churn : Risefl_core.Membership.spec option;
      (** elastic membership: derive each round's cohort, key rotations
          and epoch locally from the seeded churn schedule — must equal
          the server's spec. Rounds whose cohort excludes this client are
          sat out; a stale-epoch [Reject_stale] fast-forwards the local
          epochs and re-enrolls under jittered backoff. *)
  rejoin : bool;
      (** enroll into a session already in flight: learn the current
          round from the server's [Hello_ok] (or the [Reject_stale]
          resync path), fast-forward the locally derivable epochs, and
          participate from the current round on — client standing (bans,
          honest status) carries over because the server's view of this
          id never left the session. *)
}

val run : ?log:(string -> unit) -> config -> (int * Proto.result_view) list
(** Participate in the configured rounds; returns the per-round results
    the server announced (a round missing from the list timed out).
    @raise Failure if the server rejects us or stays unreachable past
    [max_connect_attempts]. *)
