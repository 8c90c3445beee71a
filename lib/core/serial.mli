(** Binary serialization of every protocol message.

    A production deployment ships these messages over a network; encoding
    them for real (rather than estimating sizes) keeps the communication
    accounting honest and forces the server/clients to handle malformed
    bytes. Format: little-endian u32 lengths/counts, 32-byte compressed
    points, 32-byte canonical scalars; every decoder validates counts,
    point encodings (on-curve + canonical) and scalar canonicity.

    Totality invariant: the [decode_*] result decoders are total — on any
    byte string whatsoever they return [Ok] or [Error] and never raise,
    and no length prefix is trusted before it has been validated against
    the bytes actually remaining in the frame (a hostile 0xFFFFFFFF count
    cannot trigger a large allocation). The server's rule for an
    undecodable frame is: the sender loses its honesty bit and goes into
    C*, never the server its round.

    Decoded points are {e not} subjected to the (expensive) prime-order
    subgroup check; all higher-level checks in this protocol are
    cofactor-robust for honest aggregation, and a deployment would use a
    cofactor-free encoding (Ristretto) as the paper does. *)

(** Where and why a frame failed to decode. [offset] is the byte position
    the reader had reached when it rejected the frame. *)
type error = { offset : int; reason : string }

val error_to_string : error -> string

(** Low-level writer/reader, exposed for sibling record codecs (the
    write-ahead log in [Round_log]) so they share the same primitives and
    totality discipline as the protocol messages. *)
module W : sig
  val create : unit -> Buffer.t
  val u8 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit

  val i32 : Buffer.t -> int -> unit
  (** Signed 32-bit, two's complement in the u32 lane. *)

  val bytes : Buffer.t -> Bytes.t -> unit
  (** Length-prefixed byte string. *)
end

module R : sig
  type t

  val u8 : t -> int
  val u32 : t -> int
  val i32 : t -> int
  val bytes : t -> Bytes.t

  val finish : t -> unit
end

val total : string -> (R.t -> 'a) -> Bytes.t -> ('a, error) result
(** [total name f buf] — run reader [f] over [buf]; any defect becomes
    [Error] (the totality funnel every decoder in this module uses). *)

val encode_commit_msg : Wire.commit_msg -> Bytes.t
val encode_flag_msg : Wire.flag_msg -> Bytes.t
val encode_proof_msg : Wire.proof_msg -> Bytes.t
val encode_agg_msg : Wire.agg_msg -> Bytes.t

(** The server → clients proof-round broadcast: (s, h₀ … h_k). *)
val encode_broadcast : s:Bytes.t -> hs:Curve25519.Point.t array -> Bytes.t

(** The decoders: total, as above. *)

val decode_commit : Bytes.t -> (Wire.commit_msg, error) result
val decode_flag : Bytes.t -> (Wire.flag_msg, error) result
val decode_proof : Bytes.t -> (Wire.proof_msg, error) result
val decode_agg : Bytes.t -> (Wire.agg_msg, error) result
val decode_broadcast_r : Bytes.t -> (Bytes.t * Curve25519.Point.t array, error) result

(** Reliable-transport framing: [{ round; stage; sender; seq }] plus a
    CRC-32 over the payload. The reliability layer wraps every protocol
    frame in this header so the receiver can ack, de-duplicate by
    (round, stage, sender, seq) and reject cross-round replays before the
    inner codec ever runs; a CRC mismatch reads as transient corruption
    (retransmit), not as sender malice. *)

type frame_header = { fh_round : int; fh_stage : int; fh_sender : int; fh_seq : int }

val encode_framed : round:int -> stage:int -> sender:int -> seq:int -> Bytes.t -> Bytes.t
val decode_framed : Bytes.t -> (frame_header * Bytes.t, error) result

(** Server state snapshots for the write-ahead log. *)

val encode_snapshot : Wire.server_snapshot -> Bytes.t
val decode_snapshot : Bytes.t -> (Wire.server_snapshot, error) result
