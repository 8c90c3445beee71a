module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type error = { offset : int; reason : string }

let error_to_string e = Printf.sprintf "malformed frame at byte %d: %s" e.offset e.reason

(* internal: carries the reader offset of the defect; never escapes this
   module (result decoders catch it, legacy decoders translate it) *)
exception Err of int * string

let err pos msg = raise (Err (pos, msg))

(* --- writer --- *)

module W = struct

  let create () = Buffer.create 4096
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Serial: u32 out of range";
    for i = 0 to 3 do
      Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
    done

  (* signed 32-bit, two's complement inside the u32 lane *)
  let i32 b v =
    if v < -0x80000000 || v > 0x7FFFFFFF then invalid_arg "Serial: i32 out of range";
    u32 b (v land 0xFFFFFFFF)

  let bytes b x =
    u32 b (Bytes.length x);
    Buffer.add_bytes b x

  let raw b x = Buffer.add_bytes b x
  let point b p = raw b (Point.compress p)
  let scalar b s = raw b (Scalar.to_bytes s)

  let array b f xs =
    u32 b (Array.length xs);
    Array.iter (f b) xs

  (* one Montgomery-batched field inversion for the whole vector instead
     of one inversion per point *)
  let points b ps =
    u32 b (Array.length ps);
    Array.iter (raw b) (Point.compress_batch ps)

  let scalars b ss = array b scalar ss
end

(* --- reader ---

   Totality invariant: every reader either succeeds or raises [Err]; no
   other exception can escape, and no read allocates proportionally to an
   attacker-chosen length prefix before that prefix has been validated
   against the bytes actually remaining in the frame. *)

module R = struct
  type t = { buf : Bytes.t; mutable pos : int }

  let create buf = { buf; pos = 0 }
  let remaining r = Bytes.length r.buf - r.pos

  let need r n = if n < 0 || n > remaining r then err r.pos "truncated message"

  let u8 r =
    need r 1;
    let v = Char.code (Bytes.get r.buf r.pos) in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    need r 4;
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get r.buf (r.pos + i))
    done;
    r.pos <- r.pos + 4;
    !v

  let i32 r =
    let v = u32 r in
    if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

  let raw r n =
    need r n;
    let out = Bytes.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    out

  let bytes r =
    let n = u32 r in
    if n > remaining r then err (r.pos - 4) "length field exceeds remaining bytes";
    raw r n

  let point r =
    let off = r.pos in
    match Point.decompress_unchecked (raw r 32) with
    | Some p -> p
    | None -> err off "invalid point encoding"

  let scalar r =
    let off = r.pos in
    match Scalar.of_bytes_opt (raw r 32) with
    | Some s -> s
    | None -> err off "non-canonical scalar"

  (* A length-prefixed count: a hostile 0xFFFFFFFF prefix must be rejected
     before any allocation, so the count is checked against the bytes left
     in the frame at [min_elem] bytes per element. *)
  let counted r ~min_elem =
    let n = u32 r in
    if n > remaining r / max 1 min_elem then
      err (r.pos - 4) "count field exceeds remaining bytes";
    n

  let array r ?(min_elem = 1) f =
    let n = counted r ~min_elem in
    Array.init n (fun _ -> f r)

  let points r = array r ~min_elem:32 point
  let scalars r = array r ~min_elem:32 scalar

  let finish r = if r.pos <> Bytes.length r.buf then err r.pos "trailing bytes"
end

(* --- sub-structures --- *)

let w_sealed b (s : Channel.sealed) =
  W.bytes b s.Channel.nonce;
  W.bytes b s.Channel.body;
  W.bytes b s.Channel.tag

(* three u32 length prefixes: 12 bytes minimum *)
let sealed_min_size = 12

let r_sealed r =
  let nonce = R.bytes r in
  let body = R.bytes r in
  let tag = R.bytes r in
  { Channel.nonce; body; tag }

let w_wf b (p : Zkp.Sigma.Wf.proof) =
  W.point b p.Zkp.Sigma.Wf.az;
  W.points b p.Zkp.Sigma.Wf.ae;
  W.points b p.Zkp.Sigma.Wf.ao;
  W.scalar b p.Zkp.Sigma.Wf.zr;
  W.scalars b p.Zkp.Sigma.Wf.zv;
  W.scalars b p.Zkp.Sigma.Wf.zs

let r_wf r =
  let az = R.point r in
  let ae = R.points r in
  let ao = R.points r in
  let zr = R.scalar r in
  let zv = R.scalars r in
  let zs = R.scalars r in
  { Zkp.Sigma.Wf.az; ae; ao; zr; zv; zs }

let w_square b (p : Zkp.Sigma.Square.proof) =
  W.point b p.Zkp.Sigma.Square.a1;
  W.point b p.Zkp.Sigma.Square.a2;
  W.scalar b p.Zkp.Sigma.Square.zx;
  W.scalar b p.Zkp.Sigma.Square.zs;
  W.scalar b p.Zkp.Sigma.Square.zs'

let square_size = 5 * 32

let r_square r =
  let a1 = R.point r in
  let a2 = R.point r in
  let zx = R.scalar r in
  let zs = R.scalar r in
  let zs' = R.scalar r in
  { Zkp.Sigma.Square.a1; a2; zx; zs; zs' }

let w_ipa b (p : Zkp.Ipa.proof) =
  W.points b p.Zkp.Ipa.ls;
  W.points b p.Zkp.Ipa.rs;
  W.scalar b p.Zkp.Ipa.a;
  W.scalar b p.Zkp.Ipa.b

let r_ipa r =
  let ls = R.points r in
  let rs = R.points r in
  let a = R.scalar r in
  let b = R.scalar r in
  { Zkp.Ipa.ls; rs; a; b }

let w_range b (p : Zkp.Range_proof.proof) =
  W.point b p.Zkp.Range_proof.a;
  W.point b p.Zkp.Range_proof.s;
  W.point b p.Zkp.Range_proof.t1;
  W.point b p.Zkp.Range_proof.t2;
  W.scalar b p.Zkp.Range_proof.t_hat;
  W.scalar b p.Zkp.Range_proof.tau_x;
  W.scalar b p.Zkp.Range_proof.mu;
  w_ipa b p.Zkp.Range_proof.ipa

let r_range r =
  let a = R.point r in
  let s = R.point r in
  let t1 = R.point r in
  let t2 = R.point r in
  let t_hat = R.scalar r in
  let tau_x = R.scalar r in
  let mu = R.scalar r in
  let ipa = r_ipa r in
  { Zkp.Range_proof.a; s; t1; t2; t_hat; tau_x; mu; ipa }

(* --- top-level messages --- *)

let magic_commit = 0xC1
let magic_flag = 0xC2
let magic_proof = 0xC3
let magic_agg = 0xC4
let magic_broadcast = 0xC5

(* 0xC6 = framed, 0xC7 = snapshot (below); v2 commit carries a topology
   digest for the k-regular share path *)
let magic_commit_v2 = 0xC8

let expect_magic r m =
  let off = r.R.pos in
  if R.u8 r <> m then err off "wrong message type"

(* every result decoder funnels through here: [Err] carries the offending
   offset; anything else (a defect in a reader) is still converted so that
   no exception at all can escape a decode_* call *)
let c_decode_errors = Telemetry.Counter.make "wire.decode.errors"

let total name f buf =
  let r = R.create buf in
  try Ok (f r) with
  | Err (offset, reason) ->
      Telemetry.Counter.incr c_decode_errors;
      Error { offset; reason }
  | Invalid_argument m | Failure m ->
      Telemetry.Counter.incr c_decode_errors;
      Error { offset = r.R.pos; reason = name ^ ": " ^ m }
  | exn ->
      Telemetry.Counter.incr c_decode_errors;
      Error { offset = r.R.pos; reason = name ^ ": " ^ Printexc.to_string exn }

(* per-message-type encoded byte counters: encode_* is the single choke
   point every outbound frame passes through (driver serialize mode,
   transcripts, netsim transport) *)
let c_wire_commit = Telemetry.Counter.make "wire.commit.bytes"
let c_wire_flag = Telemetry.Counter.make "wire.flag.bytes"
let c_wire_proof = Telemetry.Counter.make "wire.proof.bytes"
let c_wire_agg = Telemetry.Counter.make "wire.agg.bytes"
let c_wire_broadcast = Telemetry.Counter.make "wire.broadcast.bytes"

let counted counter b =
  let out = Buffer.to_bytes b in
  Telemetry.Counter.add counter (Bytes.length out);
  out

(* two commit encodings share one codec: the all-to-all path emits the
   historical v1 bytes (magic 0xC1, no digest — so the k = n−1 degenerate
   topology is bit-identical to the legacy path), the k-regular path
   prefixes the 32-byte topology digest under magic 0xC8. The decoder
   dispatches on the magic; v1 frames keep decoding forever. *)
let encode_commit_msg (m : Wire.commit_msg) =
  let b = W.create () in
  (match m.Wire.topo_digest with
  | None -> W.u8 b magic_commit
  | Some d ->
      if Bytes.length d <> 32 then invalid_arg "Serial.encode_commit_msg: digest must be 32 bytes";
      W.u8 b magic_commit_v2;
      W.raw b d);
  W.u32 b m.Wire.sender;
  W.points b m.Wire.y;
  W.points b m.Wire.check;
  W.array b w_sealed m.Wire.enc_shares;
  counted c_wire_commit b

let decode_commit =
  total "commit" (fun r ->
      let off = r.R.pos in
      let magic = R.u8 r in
      let topo_digest =
        if magic = magic_commit then None
        else if magic = magic_commit_v2 then Some (R.raw r 32)
        else err off "wrong message type"
      in
      let sender = R.u32 r in
      let y = R.points r in
      let check = R.points r in
      let enc_shares = R.array r ~min_elem:sealed_min_size r_sealed in
      R.finish r;
      { Wire.sender; y; check; enc_shares; topo_digest })

let encode_flag_msg (m : Wire.flag_msg) =
  let b = W.create () in
  W.u8 b magic_flag;
  W.u32 b m.Wire.sender;
  W.u32 b (List.length m.Wire.suspects);
  List.iter (W.u32 b) m.Wire.suspects;
  counted c_wire_flag b

let decode_flag =
  total "flag" (fun r ->
      expect_magic r magic_flag;
      let sender = R.u32 r in
      let n = R.counted r ~min_elem:4 in
      let suspects = List.init n (fun _ -> R.u32 r) in
      R.finish r;
      { Wire.sender; suspects })

let w_link b (p : Zkp.Sigma.Link.proof) =
  W.point b p.Zkp.Sigma.Link.az;
  W.point b p.Zkp.Sigma.Link.ae;
  W.point b p.Zkp.Sigma.Link.ao;
  W.scalar b p.Zkp.Sigma.Link.zx;
  W.scalar b p.Zkp.Sigma.Link.zr;
  W.scalar b p.Zkp.Sigma.Link.zs

let r_link r =
  let az = R.point r in
  let ae = R.point r in
  let ao = R.point r in
  let zx = R.scalar r in
  let zr = R.scalar r in
  let zs = R.scalar r in
  { Zkp.Sigma.Link.az; ae; ao; zx; zr; zs }

let w_cosine b (c : Wire.cosine_part) =
  W.point b c.Wire.o_w;
  W.point b c.Wire.o_w2;
  w_link b c.Wire.link;
  w_square b c.Wire.w_square;
  w_range b c.Wire.w_range

let r_cosine r =
  let o_w = R.point r in
  let o_w2 = R.point r in
  let link = r_link r in
  let w_square = r_square r in
  let w_range = r_range r in
  { Wire.o_w; o_w2; link; w_square; w_range }

let encode_proof_msg (m : Wire.proof_msg) =
  let b = W.create () in
  W.u8 b magic_proof;
  W.u32 b m.Wire.sender;
  W.points b m.Wire.es;
  W.points b m.Wire.os;
  W.points b m.Wire.os';
  w_wf b m.Wire.wf;
  W.array b w_square m.Wire.squares;
  (match m.Wire.cosine with
  | None -> W.u8 b 0
  | Some c ->
      W.u8 b 1;
      w_cosine b c);
  w_range b m.Wire.sigma_range;
  w_range b m.Wire.mu_range;
  counted c_wire_proof b

let decode_proof =
  total "proof" (fun r ->
      expect_magic r magic_proof;
      let sender = R.u32 r in
      let es = R.points r in
      let os = R.points r in
      let os' = R.points r in
      let wf = r_wf r in
      let squares = R.array r ~min_elem:square_size r_square in
      let cosine =
        let off = r.R.pos in
        match R.u8 r with
        | 0 -> None
        | 1 -> Some (r_cosine r)
        | _ -> err off "bad cosine flag"
      in
      let sigma_range = r_range r in
      let mu_range = r_range r in
      R.finish r;
      { Wire.sender; es; os; os'; wf; squares; cosine; sigma_range; mu_range })

let encode_agg_msg (m : Wire.agg_msg) =
  let b = W.create () in
  W.u8 b magic_agg;
  W.u32 b m.Wire.sender;
  W.scalar b m.Wire.r_sum;
  counted c_wire_agg b

let decode_agg =
  total "agg" (fun r ->
      expect_magic r magic_agg;
      let sender = R.u32 r in
      let r_sum = R.scalar r in
      R.finish r;
      { Wire.sender; r_sum })

let encode_broadcast ~s ~hs =
  let b = W.create () in
  W.u8 b magic_broadcast;
  W.bytes b s;
  W.points b hs;
  counted c_wire_broadcast b

let decode_broadcast_r =
  total "broadcast" (fun r ->
      expect_magic r magic_broadcast;
      let s = R.bytes r in
      let hs = R.points r in
      R.finish r;
      (s, hs))

(* --- durable-runtime codecs: transport framing and server snapshots --- *)

let magic_framed = 0xC6
let magic_snapshot = 0xC7

type frame_header = { fh_round : int; fh_stage : int; fh_sender : int; fh_seq : int }

let c_wire_framed = Telemetry.Counter.make "wire.framed.bytes"

let encode_framed ~round ~stage ~sender ~seq payload =
  let b = W.create () in
  W.u8 b magic_framed;
  W.u32 b round;
  W.u8 b stage;
  W.u32 b sender;
  W.u32 b seq;
  W.u32 b (Store.Crc32.digest payload);
  W.bytes b payload;
  counted c_wire_framed b

let decode_framed =
  total "framed" (fun r ->
      expect_magic r magic_framed;
      let fh_round = R.u32 r in
      let fh_stage = R.u8 r in
      let fh_sender = R.u32 r in
      let fh_seq = R.u32 r in
      let crc = R.u32 r in
      let crc_off = r.R.pos - 4 in
      let payload = R.bytes r in
      R.finish r;
      if Store.Crc32.digest payload <> crc then err crc_off "payload CRC mismatch";
      ({ fh_round; fh_stage; fh_sender; fh_seq }, payload))

let w_bools b xs =
  W.u32 b (Array.length xs);
  Array.iter (fun v -> W.u8 b (if v then 1 else 0)) xs

let r_bools r =
  R.array r ~min_elem:1 (fun r ->
      let off = r.R.pos in
      match R.u8 r with 0 -> false | 1 -> true | _ -> err off "bad bool")

let encode_snapshot (s : Wire.server_snapshot) =
  let b = W.create () in
  W.u8 b magic_snapshot;
  W.u32 b s.Wire.snap_round;
  W.u32 b s.Wire.snap_drawn;
  w_bools b s.Wire.snap_bad;
  w_bools b s.Wire.snap_banned;
  W.array b
    (fun b c ->
      match c with
      | None -> W.u8 b 0
      | Some c ->
          W.u8 b 1;
          W.bytes b (encode_commit_msg c))
    s.Wire.snap_commits;
  W.bytes b s.Wire.snap_s;
  Buffer.to_bytes b

let decode_snapshot =
  total "snapshot" (fun r ->
      expect_magic r magic_snapshot;
      let snap_round = R.u32 r in
      let snap_drawn = R.u32 r in
      let snap_bad = r_bools r in
      let snap_banned = r_bools r in
      let snap_commits =
        R.array r ~min_elem:1 (fun r ->
            let off = r.R.pos in
            match R.u8 r with
            | 0 -> None
            | 1 -> (
                let bs = R.bytes r in
                match decode_commit bs with
                | Ok c -> Some c
                | Error e -> err (off + 1 + e.offset) ("embedded commit: " ^ e.reason))
            | _ -> err off "bad commit-option flag")
      in
      let snap_s = R.bytes r in
      R.finish r;
      { Wire.snap_round; snap_drawn; snap_bad; snap_banned; snap_commits; snap_s })
