(** Elastic membership: per-round cohorts, standing, and key rotation.

    A session's client {e universe} (ids 1..n, the directory exchanged at
    enrollment) is fixed, but the per-round {e cohort} — who actually
    participates — is not: clients leave, return, and rotate their DH key
    pairs between rounds. This module tracks each client's standing,
    freezes one {!epoch} per round (the cohort, the post-rotation
    directory, and the deltas versus the previous round), verifies key
    rotations against a proof of continuity, and derives seeded churn
    schedules that every process can recompute locally.

    Epochs are WAL-logged ({!Round_log.record.Epoch}) so crash recovery
    replays the exact cohort; a returning client keeps its standing
    (C* membership survives absence — honest standing too, no
    re-conviction). *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

(** A client's standing inside the session. [Banned] (a rejected
    rotation proof) dominates; [Rotated] means present under a rotated
    key. *)
type standing = Enrolled | Dropped | Banned | Rotated

val standing_to_string : standing -> string

(** {1 Key-rotation continuity proofs} *)

(** An old-key-signed binding of the new public key: a Schnorr signature
    under the {e outgoing} secret key over (id, generation, pk_old,
    pk_new). Verifiable by anyone holding the current directory; a
    rotation that fails it convicts the claimant. *)
type rotation = {
  rot_id : int;  (** 1-based client id *)
  rot_gen : int;  (** the generation being rotated TO (>= 1) *)
  rot_new_pk : Point.t;
  rot_r : Point.t;  (** Schnorr commitment g^k *)
  rot_s : Scalar.t;  (** Schnorr response k + c·sk_old *)
}

val sign_rotation :
  id:int -> gen:int -> sk_old:Scalar.t -> pk_old:Point.t -> new_pk:Point.t -> nonce:Scalar.t -> rotation

val verify_rotation : rotation -> pk_old:Point.t -> bool

(** {1 Epochs} *)

type delta =
  | D_joined of int
  | D_left of int
  | D_rejoined of int
  | D_rotated of int
  | D_rotation_rejected of int

(** One round's frozen membership: the WAL-logged unit of recovery. *)
type epoch = {
  ep_round : int;
  ep_cohort : int array;  (** sorted 1-based ids of this round's active clients *)
  ep_pks : Point.t array;  (** the full universe directory, post-rotation *)
  ep_gens : int array;  (** per-client key generation (0 = the session key) *)
  ep_deltas : delta list;  (** standing changes vs the previous epoch *)
  ep_convicts : int list;  (** clients whose rotation proof was rejected *)
}

val epoch_cohort_size : epoch -> int

type event = Leave of int | Join of int | Rotate of int

(** Mutable membership state across a session. *)
type t

(** [create pks] — open a session over the enrolled universe: everyone
    present, generation 0. *)
val create : Point.t array -> t

val n : t -> int
val standing : t -> int -> standing

(** The currently-present ids, sorted. *)
val cohort : t -> int array

(** [advance t ~round ~events ~rotation_for] — apply one round's
    membership events in order and freeze the epoch. [rotation_for ~id
    ~gen] materializes the continuity proof for a rotation request
    ([None] silently skips it); a proof that fails verification leaves
    the directory untouched, marks the client banned, and lands it in
    [ep_convicts]. Leaves of absent clients and joins of present ones
    are no-ops. *)
val advance :
  t ->
  round:int ->
  events:event list ->
  rotation_for:(id:int -> gen:int -> rotation option) ->
  epoch

(** {1 Seeded churn schedules} *)

(** Per-round churn rates and the cohort floor the schedule never drops
    below (keep it >= the Shamir threshold or rounds cannot complete). *)
type spec = { p_leave : float; p_rejoin : float; p_rotate : float; min_cohort : int }

val default_spec : spec
val spec_to_string : spec -> string

(** Parse ["leave=0.2,rejoin=0.5,rotate=0.1,min=3"] (all keys optional,
    missing ones take {!default_spec}). *)
val spec_of_string : string -> (spec, string) result

(** [schedule ~seed spec ~n ~rounds] — the per-round event lists, a pure
    function of its arguments: every process derives the identical
    schedule, so membership needs no extra wire bytes. Round 1 is always
    the full cohort. *)
val schedule : seed:string -> spec -> n:int -> rounds:int -> event list array
