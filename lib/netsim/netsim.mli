(** Simulated lossy/adversarial transport between protocol participants.

    [Netsim] sits between {!Driver} and the wire codecs: a frame submitted
    with {!send} crosses a per-link fault plan (drop, delay by simulated
    ticks, duplicate, reorder, truncate, byte flips, replay of a previous
    round's frame) before {!deliver} hands the surviving bytes to the
    receiver. Every fault decision is drawn from a DRBG forked by
    (round, stage, sender), so a fault schedule is a pure function of the
    seed — reruns, job counts and send order cannot change it.

    The interface is deliberately the one a real socket backend would
    implement later: opaque frames in, (sender, frame) pairs out, with a
    deadline after which a sender counts as dropped out. Nothing in here
    knows about the protocol message types. *)

(** Protocol stage a frame belongs to (one logical exchange per stage). *)
type stage = Commit | Flag | Proof | Agg

val stage_to_string : stage -> string

(** The inverse of {!stage_to_string}; [None] on any other string. *)
val stage_of_string : string -> stage option

val stage_index : stage -> int
(** Stable wire/WAL encoding of a stage: commit 0, flag 1, proof 2, agg 3. *)

val stage_of_index : int -> stage option

(** A single fault applied to one frame. Scripted faults use these
    directly; sampled faults draw the parameters from the link DRBG. *)
type fault =
  | Drop  (** frame is lost *)
  | Delay of int  (** arrival delayed by this many ticks *)
  | Duplicate  (** a second copy arrives one tick later *)
  | Reorder  (** frame sorts after later sends of the same tick *)
  | Truncate_at of int  (** keep only the first [n] bytes *)
  | Flip_bytes of int  (** xor [n] randomly chosen bytes with random masks *)
  | Replay_previous
      (** substitute the frame this link sent for this stage in a previous
          round (no-op in round 1 or if the link never sent one) *)

(** Per-link fault probabilities; all independent per frame. *)
type plan = {
  p_drop : float;
  p_delay : float;
  max_delay : int;  (** sampled delays are uniform in [1, max_delay] *)
  p_duplicate : float;
  p_reorder : float;
  p_truncate : float;
  p_flip : float;
  p_replay : float;
}

(** The fault-free plan (all probabilities 0). *)
val ideal : plan

(** [uniform ?max_delay p] — every fault class fires with probability [p]. *)
val uniform : ?max_delay:int -> float -> plan

(** Parse a comma-separated spec, e.g.
    ["drop=0.1,flip=0.05,delay=0.2:4,dup=0.02,trunc=0.05,reorder=0.1,replay=0.02"].
    [delay] accepts [p] or [p:max_ticks]. Unknown keys are an error. *)
val plan_of_string : string -> (plan, string) result

val plan_to_string : plan -> string

type t

(** [create ?plan ?link_plans ?script ?deadline ~seed ()] — a transport
    whose fault schedule is a deterministic function of [seed].
    [link_plans] overrides the plan for specific senders (1-based);
    [script] forces an exact fault list for a (round, stage, sender)
    triple, bypassing sampling — the deterministic tool the dropout and
    corruption tests use. [deadline] is the default collection deadline in
    ticks (default 4): frames arriving later count as dropouts. *)
val create :
  ?plan:plan ->
  ?link_plans:(int * plan) list ->
  ?script:((int * stage * int) * fault list) list ->
  ?deadline:int ->
  seed:string ->
  unit ->
  t

val deadline : t -> int

(** [begin_stage t ~round ~stage] — open a fresh exchange; frames still
    queued from the previous stage are discarded (they were late). *)
val begin_stage : t -> round:int -> stage:stage -> unit

(** [send ?attempt t ~sender frame] — submit one frame on [sender]'s link
    at tick 0 of the current stage. The transport applies the link's
    faults. [attempt] (default 0) tags a retransmission: attempt 0 draws
    faults under the historical (round, stage, sender) fork so existing
    schedules are unchanged, while attempt [k > 0] re-rolls faults under
    an attempt-suffixed fork and counts as [retransmitted]. Scripted
    faults apply to every attempt (a scripted Drop is a persistent
    outage). *)
val send : ?attempt:int -> t -> sender:int -> Bytes.t -> unit

(** [note_recovered t] — record that a reliability layer above the
    transport acked a frame after at least one retransmission (the
    counterpart of a drop that stays lost past the deadline). *)
val note_recovered : t -> unit

(** [deliver ?deadline t] — everything that arrived by the deadline tick,
    in arrival order (tick, then send/reorder sequence). Duplicates are
    delivered as separate entries; the receiver must de-duplicate. *)
val deliver : ?deadline:int -> t -> (int * Bytes.t) list

(** Cumulative transport counters since [create]. *)
type counters = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to a Drop fault *)
  late : int;  (** arrived after the deadline (counts as dropout) *)
  mutated : int;  (** frames whose bytes were altered (truncate/flip/replay) *)
  duplicated : int;
  reordered : int;
  replayed : int;
  retransmitted : int;  (** extra send attempts submitted by a reliability layer *)
  recovered : int;  (** frames acked only after >= 1 retransmission *)
}

val counters : t -> counters

(** {1 The shared transport signature}

    Netsim (the deterministic fault-injected test double) and the real
    socket transports ({!Risefl_transport.Loopback}) implement one
    interface, so the driver, the ARQ layer and the degradation/dropout
    test suites run unchanged against either backend. *)

module Transport_intf : sig
  (** A first-class transport endpoint — the capability set the driver
      and the ARQ layer consume, packed as closures so heterogeneous
      backends flow through one optional argument. *)
  type endpoint = {
    ep_begin_stage : round:int -> stage:stage -> unit;
    ep_send : attempt:int -> sender:int -> Bytes.t -> unit;
    ep_deliver : deadline:int option -> (int * Bytes.t) list;
    ep_note_recovered : unit -> unit;
    ep_deadline : unit -> int;
    ep_counters : unit -> counters;
  }

  (** What a transport backend provides. [create]'s fault plan/script
      parameters are the Netsim vocabulary: a backend that carries real
      bytes (sockets) applies the same seeded schedule after frame
      reassembly, so outcomes are bit-identical across backends. *)
  module type S = sig
    type t

    val create :
      ?plan:plan ->
      ?link_plans:(int * plan) list ->
      ?script:((int * stage * int) * fault list) list ->
      ?deadline:int ->
      seed:string ->
      unit ->
      t

    val deadline : t -> int
    val begin_stage : t -> round:int -> stage:stage -> unit
    val send : ?attempt:int -> t -> sender:int -> Bytes.t -> unit
    val note_recovered : t -> unit
    val deliver : ?deadline:int -> t -> (int * Bytes.t) list
    val counters : t -> counters
    val endpoint : t -> endpoint
  end
end

val endpoint : t -> Transport_intf.endpoint
(** Pack this Netsim instance for {!Driver}'s [?endpoint] argument —
    [Netsim] itself then satisfies {!Transport_intf.S}. *)
