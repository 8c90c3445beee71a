(** Socket-protocol envelopes: everything that crosses a connection.

    Each message travels as one {!Frame} body: a u8 tag followed by the
    tag's fields, written with the same {!Risefl_core.Serial} primitives
    (and the same totality discipline) as the protocol messages — the
    decoder returns [Ok]/[Error] on any byte string and never allocates
    from an unvalidated count.

    Client → server: [Hello] (register/re-register a client id after
    connect or reconnect), [Submit] (one ARQ frame — the
    [Serial.encode_framed] bytes, exactly what the in-process reliable
    layer puts on its links), [Reveal_resp], [Bye].

    Server → client: [Hello_ok], [Ack] (write-ahead acknowledged — the
    frame is in the WAL), the four round broadcasts ([Commits], [Cleared],
    [Check], [Honest]), [Reveal_req], [Result], [Alive] (broadcast before
    each reveal or recovery sub-exchange: the server is still working on
    the round, so every client restarts its broadcast wait), and a
    best-effort [Reject] sent before the server closes a violating
    connection.

    Versioning: there is one protocol revision, {!proto_version}.
    [Hello] carries the client's revision and the round it resumes
    from; the server [Reject]s any other revision with one check, and a
    client fails on an announcement of any other revision.

    The session announcement: [Hello_ok] is the only source of the
    settings the server and its clients must agree on — the {!session}
    record (stage deadline, round count, topology degree, churn spec)
    plus the revision and the round in flight. A client takes none of
    these from its own command line: it derives the round's share graph
    from the degree, the churn schedule from the spec (a pure function
    of the session seed, so the probabilities travel as IEEE-754 bits
    and no membership bytes cross the wire), and its waits from the
    deadline. The security parameters (n, m, d, k, the bound, the seed)
    stay the client's own: a client must not take its VSSS threshold
    from the server. The round in flight is also how a client catches
    up: one that arrives late or comes back behind the session applies
    the locally derivable rounds before it and joins at that round
    ({!Client}).

    The k-regular recovery sub-exchange: when an agg-stage dropout's
    blind must be re-interpolated, the server sends [Recover_req] to each
    alive graph neighbor, which answers [Recover_resp] with its stored
    VSSS share of the dropout's blind (None if it never verified) and the
    pairwise aggregation mask toward the dropout. *)

(** The protocol revision this build speaks. *)
val proto_version : int

module Scalar = Curve25519.Scalar

(** The announced session: everything a client must derive exactly as
    the server does. *)
type session = {
  deadline_s : float;  (** the server's per-stage collection deadline D *)
  rounds : int;  (** the session's round count *)
  degree : int;  (** the share-topology degree (0 = all-to-all) *)
  churn : Risefl_core.Membership.spec option;  (** elastic membership, if any *)
}

(** A round verdict as broadcast to clients (a compact view of
    {!Risefl_core.Driver.round_outcome} — timing stats stay server-side). *)
type result_view =
  | Rv_completed of { cstar : int list; aggregate : int array option }
  | Rv_aborted_quorum of { stage : string; survivors : int; needed : int }
  | Rv_aborted_decode of int list

type msg =
  | Hello of { client_id : int; resume_round : int; version : int }
  | Submit of Bytes.t
  | Reveal_resp of { dealer : int; shares : (int * Scalar.t) list option }
  | Bye
  | Hello_ok of { round : int; version : int; session : session }
  | Ack of { round : int; stage : Netsim.stage; sender : int; seq : int }
  | Commits of { round : int; commits : Bytes.t array }
  | Cleared of { round : int; shares : (int * int * Scalar.t) list }
  | Check of { round : int; bcast : Bytes.t }
  | Honest of { round : int; honest : int list; malicious : int list }
  | Reveal_req of { dealer : int; requests : int list }
  | Result of { round : int; view : result_view }
  | Reject of { reason : string }
  | Recover_req of { round : int; dropout : int }
  | Recover_resp of { round : int; dropout : int; share : Scalar.t option; mask : Scalar.t }
  | Alive  (** a sub-exchange wait starts server-side: restart the broadcast wait *)

val session_error : session -> string option
(** Why the server could not announce this record (a non-finite or
    non-positive deadline, no rounds, a negative degree, a churn rate
    outside [0, 1]), or [None]. The decoder rejects such a record, so the
    server checks its own before it listens. *)

val encode : msg -> Bytes.t
(** The frame body (not yet length-prefixed — pass through
    {!Frame.encode} to put it on the wire). *)

val decode : Bytes.t -> (msg, Risefl_core.Serial.error) result
(** Total: [Ok] or [Error] on any input, never an exception, no
    allocation from an unvalidated count. *)

val tag_name : msg -> string
