(** Retransmitting (ack/seq) layer over a transport endpoint.

    One {!exchange} call runs a full reliable stage: every active sender's
    payload is wrapped in the {!Serial.encode_framed} header
    (round, stage, sender, seq, payload CRC) and submitted; whatever
    survives the fault plan by the attempt's deadline is unwrapped,
    validated and acked; unacked senders retransmit under exponential
    backoff (the delivery window doubles per attempt) until the attempt
    budget runs out. The receive side de-duplicates idempotently by
    (round, stage, sender, seq) — duplicated, reordered and cross-round
    replayed copies are suppressed before the protocol codec ever runs —
    so a transient fault no longer costs a client its round; only loss
    persisting past the final deadline does.

    A framing/CRC failure is treated as line noise (drop + retransmit),
    {e not} as sender malice: malice is judged on the inner protocol codec
    only once a CRC-clean frame has arrived. *)

type t

val create_ep :
  ?max_attempts:int -> ?base_deadline:int -> Netsim.Transport_intf.endpoint -> t
(** [create_ep ?max_attempts ?base_deadline ep] — a reliable layer over
    any transport backend packed as a {!Netsim.Transport_intf.endpoint}
    ([Netsim.endpoint net], the socket loopback harness, a real wire
    adapter). [max_attempts] (default 4) bounds total sends per frame;
    [base_deadline] (default: [ep]'s deadline) is the first attempt's
    delivery window in ticks, doubled each retry. *)

val exchange :
  t ->
  round:int ->
  stage:Netsim.stage ->
  ?already:int list ->
  Bytes.t option array ->
  (int * int * Bytes.t) list
(** [exchange t ~round ~stage ?already payloads] — run the stage's
    reliable exchange. [payloads.(i)] is sender [i+1]'s protocol frame
    ([None] = inactive this stage); [already] lists senders to treat as
    acked before the first send (recovery: frames already in the WAL).
    Returns accepted [(sender, seq, payload)] in acceptance order. *)

type counters = {
  logical : int;  (** distinct frames submitted for reliable delivery *)
  attempts : int;  (** physical sends, including first attempts *)
  retransmits : int;  (** sends beyond a frame's first attempt *)
  recovered : int;  (** frames acked only after >= 1 retransmission *)
  lost : int;  (** frames never acked by the final deadline *)
  dup_suppressed : int;  (** deliveries dropped by the per-exchange (sender, seq) dedup *)
  rejected : int;  (** framing/CRC failures and cross-round replays *)
}

val counters : t -> counters
