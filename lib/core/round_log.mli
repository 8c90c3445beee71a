(** Typed write-ahead log of round events, over {!Store.Wal}.

    The log is the server's durability boundary: every frame the server
    accepts is appended (and fsynced) {e before} it is processed, stage
    completions and the drawn check string are logged as they happen, and
    a {!record.Snapshot} of the server state opens every round. Recovery
    replays the intact prefix: restore the last snapshot, re-feed the
    logged frames of the in-progress round, and resume — the result is
    bit-identical to the uncrashed run (see {!Driver.recover_round}).

    Frames are keyed (round, stage, sender, seq) so replay after a crash
    — or a duplicated delivery straddling the crash — de-duplicates
    idempotently. *)

type record =
  | Round_start of { round : int }
  | Snapshot of Wire.server_snapshot
      (** server state at a round boundary (see {!Server.snapshot}) *)
  | Frame of { round : int; stage : Netsim.stage; sender : int; seq : int; frame : Bytes.t }
      (** one accepted client frame, logged write-ahead of processing *)
  | Stage_done of { round : int; stage : Netsim.stage }
  | Check of { round : int; s : Bytes.t }
      (** the drawn check string (audit record: recovery re-derives it
          from the DRBG position and asserts equality) *)
  | Round_end of { round : int; cstar : int list; aggregate : int array option }
  | Epoch of Membership.epoch
      (** the round's frozen membership — cohort, post-rotation
          directory, standing deltas — written before [Round_start] so
          recovery re-enters the round under the exact cohort *)

type t

val create : ?fsync:bool -> string -> t
(** [create ?fsync path] — open (append) the log at [path].
    [fsync] as in {!Store.Wal.open_} (default [true]). *)

val path : t -> string
val append : t -> record -> unit
val sync : t -> unit
val close : t -> unit

val replay : string -> record list * Store.Wal.replay_status
(** Decode the intact prefix of the log. A torn or corrupt tail (the
    normal shape after a crash mid-append) terminates the scan with the
    [Torn] status; an undecodable record body inside a CRC-clean frame is
    reported the same way. Never raises. *)

val pending_round : record list -> int option
(** The round a crash interrupted: the last [Round_start] with no
    [Round_end] after it, or [None] when every logged round is sealed. *)

val resume_point : record list -> int
(** The round a process continuing the log starts at: the unsealed round
    ({!pending_round}) if there is one, otherwise the round after the
    last sealed one, and 1 for an empty log. *)
