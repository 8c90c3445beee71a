(** Dependency-free single-threaded event loop (Unix.select) for the
    server side of the socket transport.

    One listener (TCP or Unix-domain) plus any number of accepted
    connections, all non-blocking. Each connection owns a capped
    {!Frame.Reassembler} for reads and a bounded outbuffer for writes
    (backpressure: a peer that stops reading past the cap is
    disconnected, never buffered without bound). {!poll} multiplexes one
    select round and returns typed events; a framing or envelope
    violation closes the connection and surfaces as {!event.Violation} —
    it never raises out of the loop.

    [select] bounds the loop at [FD_SETSIZE] (1024) connections per
    process; the sharded-aggregation roadmap item is the path past that,
    not a thread pool. *)

(** Listen/connect address. [tcp:HOST:PORT] or [unix:PATH]. *)
type addr = Tcp of string * int | Unix_sock of string

val addr_of_string : string -> (addr, string) result
val addr_to_string : addr -> string
val sockaddr_of_addr : addr -> Unix.sockaddr

type conn

val conn_id : conn -> int option
(** The client id the peer registered with (via the server's Hello
    handling), if any. *)

val set_conn_id : conn -> int -> unit
val conn_peer : conn -> string
(** Human-readable peer address (diagnostics). *)

type event =
  | Accepted of conn
  | Msg of conn * Proto.msg
  | Violation of conn * string
      (** frame cap exceeded or undecodable envelope; the connection has
          been closed — the caller decides whether to convict the peer *)
  | Closed of conn  (** EOF or socket error; the peer may reconnect *)

type t

val listen : ?max_frame:int -> ?max_outbuf:int -> addr -> t
(** Bind + listen (non-blocking). [max_outbuf] (default 64 MiB) bounds
    each connection's pending write bytes — exceeding it disconnects the
    peer. An existing Unix-socket path is unlinked first.
    @raise Unix.Unix_error if the address cannot be bound. *)

val poll : t -> timeout_s:float -> event list
(** One select round: accept new connections, read what's available
    (feeding reassemblers), flush what outbuffers can write. Returns
    after [timeout_s] at the latest (earlier if anything happened). *)

val send : t -> conn -> Proto.msg -> unit
(** Enqueue (and opportunistically flush) one envelope. Silently drops
    on a dead connection; disconnects the peer on outbuffer overflow. *)

val broadcast : t -> Proto.msg -> unit
(** {!send} to every connection that has registered a client id. *)

val conn_of_id : t -> int -> conn option
(** The live registered connection for a client id, if any. *)

val close_conn : t -> conn -> unit

val drain : t -> deadline_s:float -> unit
(** Pump writes until every outbuffer is empty or the monotonic deadline
    ({!Telemetry.Clock.now_s}) passes — used before a planned crash or
    shutdown so queued broadcasts reach the peers. Incoming events in
    this window are processed into an internal queue returned by the
    next {!poll}. *)

val shutdown : t -> unit
(** Close the listener and every connection (Unix-socket path is
    unlinked). *)
