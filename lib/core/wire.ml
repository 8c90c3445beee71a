module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type commit_msg = {
  sender : int;
  y : Point.t array;
  check : Vsss.check;
  enc_shares : Channel.sealed array;
  topo_digest : Bytes.t option;
}

type share_layout = { recipients : int array; threshold : int; digest : Bytes.t option }

let share_layout p ~topo ~cohort ~dealer =
  match topo with
  | None -> { recipients = cohort; threshold = Params.shamir_t p; digest = None }
  | Some tp ->
      let module T = Risefl_topology.Topology in
      { recipients = T.neighbors tp dealer; threshold = T.threshold tp; digest = Some (T.digest tp) }

let share_slot l id =
  let rec find r =
    if r = Array.length l.recipients then None
    else if l.recipients.(r) = id then Some r
    else find (r + 1)
  in
  find 0

let fits_layout l (m : commit_msg) =
  Array.length m.check = l.threshold
  && Array.length m.enc_shares = Array.length l.recipients
  && Option.equal Bytes.equal m.topo_digest l.digest

type flag_msg = { sender : int; suspects : int list }

type cosine_part = {
  o_w : Point.t;
  o_w2 : Point.t;
  link : Zkp.Sigma.Link.proof;
  w_square : Zkp.Sigma.Square.proof;
  w_range : Zkp.Range_proof.proof;
}

type proof_msg = {
  sender : int;
  es : Point.t array;
  os : Point.t array;
  os' : Point.t array;
  wf : Zkp.Sigma.Wf.proof;
  squares : Zkp.Sigma.Square.proof array;
  cosine : cosine_part option;
  sigma_range : Zkp.Range_proof.proof;
  mu_range : Zkp.Range_proof.proof;
}

type agg_msg = { sender : int; r_sum : Scalar.t }

(* Everything the server needs to resume bit-identically after a crash:
   the malicious sets (this round's C* and the set carried across rounds),
   the validated commits, the last broadcast check string, and how many
   bytes the root DRBG has drawn — a fresh server fast-forwards its stream
   by [snap_drawn] bytes and is then byte-aligned with the crashed one. *)
type server_snapshot = {
  snap_round : int;
  snap_drawn : int;  (* bytes consumed from the server's root DRBG *)
  snap_bad : bool array;  (* C* of the round in progress *)
  snap_banned : bool array;  (* C* carried across session rounds *)
  snap_commits : commit_msg option array;
  snap_s : Bytes.t;  (* last broadcast check string; may be empty *)
}

let point_size = 32
let scalar_size = 32
let int_size = 4

let commit_msg_size m =
  int_size
  + (point_size * Array.length m.y)
  + (point_size * Array.length m.check)
  + Array.fold_left (fun acc s -> acc + Channel.sealed_size s) 0 m.enc_shares
  + (match m.topo_digest with None -> 0 | Some d -> Bytes.length d)

let flag_msg_size m = int_size + (int_size * List.length m.suspects)

let cosine_part_size c =
  (2 * point_size)
  + Zkp.Sigma.Link.size_bytes c.link
  + Zkp.Sigma.Square.size_bytes c.w_square
  + Zkp.Range_proof.size_bytes c.w_range

let proof_msg_size m =
  int_size
  + (point_size * (Array.length m.es + Array.length m.os + Array.length m.os'))
  + Zkp.Sigma.Wf.size_bytes m.wf
  + Array.fold_left (fun acc p -> acc + Zkp.Sigma.Square.size_bytes p) 0 m.squares
  + (match m.cosine with None -> 1 | Some c -> 1 + cosine_part_size c)
  + Zkp.Range_proof.size_bytes m.sigma_range
  + Zkp.Range_proof.size_bytes m.mu_range

let agg_msg_size _ = int_size + scalar_size
let broadcast_size ~k = 32 + (point_size * (k + 1))
