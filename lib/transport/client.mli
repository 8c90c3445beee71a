(** The deployment client: one process driving one {!Risefl_core.Client}
    state machine against a {!Server} over a socket.

    Bit-identity with the in-process run comes from construction: the
    process builds the {e same} {!Risefl_core.Driver.session} from the
    shared seed (the per-client DRBGs are independent forks, so the
    untouched siblings never advance), derives its per-round update with
    {!Updates.make}, and builds every message with the driver's client
    steps over the round's {!Risefl_core.Driver.round_view}.

    The session is the server's: the process waits for the [Hello_ok]
    announcement ({!Proto.session}) before it builds round 1's view, and
    takes the round count, the share topology, the churn schedule and
    its waits from it. A client that joins a session in flight (the
    announced round is past 1) fast-forwards the locally derivable
    membership epochs and participates from that round on (its
    standing carries over: the server's view of the id never left the
    session); a stale epoch gets [Reject_stale], which carries the same
    record, and re-enrolls. Under a k-regular round the client commits wire-v2
    (neighbor shares + digest), masks its agg sum pairwise, and answers
    [Recover_req] from that round's view; rounds whose elastic cohort
    excludes this client are sat out.

    Robustness: connect (and reconnect after any socket error) retries
    under jittered exponential backoff; every stage submit retransmits
    until the server's write-ahead ack arrives. The wait rule: each
    broadcast wait and each submit-until-acked loop lasts until 2·D (D
    = the announced stage deadline) pass without an envelope from the
    server. The server is never quiet for longer than D plus its
    compute: a stage's collection ends in a broadcast, each reveal or
    recovery sub-exchange opens with an [Alive], and a restarted server
    announces itself and re-collects under a fresh D. A lapsed wait
    degrades to the quorum path (the round's [Result] is accepted in
    place of a missed broadcast, and a fully silent server ends the
    round locally instead of hanging). The handshake is bounded too: an
    undecodable announcement fails the client at once, and so does no
    announcement within 60 s of connecting.

    State: one record per round (acks, broadcasts, the round's view, the
    framed submits, and the reveal and recovery answers), dropped once
    the next round opens. Framed submits, reveal answers and recovery
    answers are cached there, so a reconnect or a restarted server gets
    identical bytes. *)

type config = {
  addr : Evloop.addr;
  setup : Risefl_core.Setup.t;
      (** the security parameters (n, m, d, k, the bound) are the
          client's own: never taken from the server *)
  seed : string;  (** must equal the server's session seed *)
  id : int;  (** this client's id, 1-based *)
  behaviours : Risefl_core.Driver.behaviour array;
      (** the session's behaviour vector, as the in-process [round]
          builds it: this process acts out its own entry, and the update
          derivation scales the [Oversized] ones (shared knowledge) *)
  loris : bool;  (** write submits one byte at a time (testing) *)
  die_at : (int * Netsim.stage) option;
      (** exit the process just before submitting this stage (testing) *)
  max_connect_attempts : int;
}

val run : ?log:(string -> unit) -> config -> (int * Proto.result_view) list
(** Participate in the announced rounds; returns the per-round results
    the server broadcast (a round missing from the list timed out, or
    was sat out or missed).
    @raise Failure if the server rejects us, stays unreachable past
    [max_connect_attempts], or announces no session this client can
    follow. *)
