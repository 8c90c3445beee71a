module Serial = Risefl_core.Serial
module Scalar = Curve25519.Scalar
module W = Serial.W
module R = Serial.R

(* The transport protocol revision this build speaks: v4, whose
   Hello_ok and Reject_stale carry the announced session record, whose
   Hello has no rejoin flag, and which adds Alive. Bumped
   with any change a peer of another revision cannot follow; a server
   talks to its own revision only. *)
let proto_version = 4

module Membership = Risefl_core.Membership

type session = {
  deadline_s : float;
  rounds : int;
  degree : int;
  churn : Membership.spec option;
}

type result_view =
  | Rv_completed of { cstar : int list; aggregate : int array option }
  | Rv_aborted_quorum of { stage : string; survivors : int; needed : int }
  | Rv_aborted_decode of int list

type msg =
  | Hello of { client_id : int; resume_round : int; version : int; epoch : int }
  | Submit of Bytes.t
  | Reveal_resp of { dealer : int; shares : (int * Scalar.t) list option }
  | Bye
  | Hello_ok of { n : int; round : int; version : int; epoch : int; session : session }
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
  | Reject_stale of { current_round : int; session : session; reason : string }
      (* typed: the client's membership epoch is behind the session —
         fast-forward the locally derivable epochs and re-enroll *)
  | Alive  (* the server starts a sub-exchange wait: clients restart theirs *)

let tag_name = function
  | Hello _ -> "hello"
  | Submit _ -> "submit"
  | Reveal_resp _ -> "reveal-resp"
  | Bye -> "bye"
  | Hello_ok _ -> "hello-ok"
  | Ack _ -> "ack"
  | Commits _ -> "commits"
  | Cleared _ -> "cleared"
  | Check _ -> "check"
  | Honest _ -> "honest"
  | Reveal_req _ -> "reveal-req"
  | Result _ -> "result"
  | Reject _ -> "reject"
  | Recover_req _ -> "recover-req"
  | Recover_resp _ -> "recover-resp"
  | Reject_stale _ -> "reject-stale"
  | Alive -> "alive"

(* counts inside an envelope are bounded before any per-element work: a
   hostile count fails fast instead of driving a long read loop *)
let max_count = 1_000_000

let checked_count c =
  if c < 0 || c > max_count then failwith "count out of range";
  c

let w_ints b xs =
  W.u32 b (List.length xs);
  List.iter (fun x -> W.u32 b x) xs

let r_ints r = List.init (checked_count (R.u32 r)) (fun _ -> R.u32 r)

let w_scalar b s = W.bytes b (Scalar.to_bytes s)

let r_scalar r =
  match Scalar.of_bytes_opt (R.bytes r) with
  | Some s -> s
  | None -> failwith "bad scalar"

let w_string b s = W.bytes b (Bytes.of_string s)
let r_string r = Bytes.to_string (R.bytes r)

(* floats travel as their IEEE-754 bits (high word first): both sides
   derive the churn schedule from these values, so no decimal rounding *)
let w_float b f =
  let bits = Int64.bits_of_float f in
  W.u32 b (Int64.to_int (Int64.shift_right_logical bits 32));
  W.u32 b (Int64.to_int (Int64.logand bits 0xFFFF_FFFFL))

let r_float r =
  let hi = R.u32 r in
  let lo = R.u32 r in
  Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let rate_ok p = p >= 0.0 && p <= 1.0

let session_error { deadline_s; rounds; degree; churn } =
  if not (Float.is_finite deadline_s && deadline_s > 0.0) then
    Some "the stage deadline must be finite and positive"
  else if rounds < 1 then Some "the round count must be at least 1"
  else if degree < 0 then Some "the topology degree must be non-negative"
  else
    match churn with
    | Some { Membership.p_leave; p_rejoin; p_rotate; min_cohort } ->
        if not (rate_ok p_leave && rate_ok p_rejoin && rate_ok p_rotate) then
          Some "the churn rates must lie in [0, 1]"
        else if min_cohort < 0 then Some "the churn cohort floor must be non-negative"
        else None
    | None -> None

let w_session b { deadline_s; rounds; degree; churn } =
  w_float b deadline_s;
  W.u32 b rounds;
  W.u32 b degree;
  match churn with
  | None -> W.u8 b 0
  | Some { Membership.p_leave; p_rejoin; p_rotate; min_cohort } ->
      W.u8 b 1;
      w_float b p_leave;
      w_float b p_rejoin;
      w_float b p_rotate;
      W.u32 b min_cohort

(* a record the server could not have announced (it checks its own with
   [session_error] before listening) is undecodable *)
let r_session r =
  let deadline_s = r_float r in
  let rounds = R.u32 r in
  let degree = R.u32 r in
  let churn =
    match R.u8 r with
    | 0 -> None
    | 1 ->
        let p_leave = r_float r in
        let p_rejoin = r_float r in
        let p_rotate = r_float r in
        let min_cohort = R.u32 r in
        Some { Membership.p_leave; p_rejoin; p_rotate; min_cohort }
    | _ -> failwith "bad option tag"
  in
  let session = { deadline_s; rounds; degree; churn } in
  match session_error session with Some e -> failwith e | None -> session

let encode msg =
  let b = W.create () in
  (match msg with
  | Hello { client_id; resume_round; version; epoch } ->
      W.u8 b 1;
      W.u32 b client_id;
      W.u32 b resume_round;
      W.u32 b version;
      (* the last membership epoch the client has applied *)
      W.u32 b epoch
  | Submit framed ->
      W.u8 b 2;
      W.bytes b framed
  | Reveal_resp { dealer; shares } ->
      W.u8 b 3;
      W.u32 b dealer;
      (match shares with
      | None -> W.u8 b 0
      | Some shares ->
          W.u8 b 1;
          W.u32 b (List.length shares);
          List.iter
            (fun (recipient, s) ->
              W.u32 b recipient;
              w_scalar b s)
            shares)
  | Bye -> W.u8 b 4
  | Hello_ok { n; round; version; epoch; session } ->
      W.u8 b 5;
      W.u32 b n;
      W.u32 b round;
      W.u32 b version;
      (* the server's current membership epoch (0 = static) *)
      W.u32 b epoch;
      w_session b session
  | Ack { round; stage; sender; seq } ->
      W.u8 b 6;
      W.u32 b round;
      W.u8 b (Netsim.stage_index stage);
      W.u32 b sender;
      W.u32 b seq
  | Commits { round; commits } ->
      W.u8 b 7;
      W.u32 b round;
      W.u32 b (Array.length commits);
      Array.iter (fun c -> W.bytes b c) commits
  | Cleared { round; shares } ->
      W.u8 b 8;
      W.u32 b round;
      W.u32 b (List.length shares);
      List.iter
        (fun (flagger, dealer, s) ->
          W.u32 b flagger;
          W.u32 b dealer;
          w_scalar b s)
        shares
  | Check { round; bcast } ->
      W.u8 b 9;
      W.u32 b round;
      W.bytes b bcast
  | Honest { round; honest; malicious } ->
      W.u8 b 10;
      W.u32 b round;
      w_ints b honest;
      w_ints b malicious
  | Reveal_req { dealer; requests } ->
      W.u8 b 11;
      W.u32 b dealer;
      w_ints b requests
  | Result { round; view } -> (
      W.u8 b 12;
      W.u32 b round;
      match view with
      | Rv_completed { cstar; aggregate } ->
          W.u8 b 0;
          w_ints b cstar;
          (match aggregate with
          | None -> W.u8 b 0
          | Some agg ->
              W.u8 b 1;
              W.u32 b (Array.length agg);
              Array.iter (fun v -> W.i32 b v) agg)
      | Rv_aborted_quorum { stage; survivors; needed } ->
          W.u8 b 1;
          w_string b stage;
          W.u32 b survivors;
          W.u32 b needed
      | Rv_aborted_decode ids ->
          W.u8 b 2;
          w_ints b ids)
  | Reject { reason } ->
      W.u8 b 13;
      w_string b reason
  | Recover_req { round; dropout } ->
      W.u8 b 14;
      W.u32 b round;
      W.u32 b dropout
  | Recover_resp { round; dropout; share; mask } ->
      W.u8 b 15;
      W.u32 b round;
      W.u32 b dropout;
      (match share with
      | None -> W.u8 b 0
      | Some s ->
          W.u8 b 1;
          w_scalar b s);
      w_scalar b mask
  | Reject_stale { current_round; session; reason } ->
      W.u8 b 16;
      W.u32 b current_round;
      w_session b session;
      w_string b reason
  | Alive -> W.u8 b 17);
  Buffer.to_bytes b

let decode body =
  ( Serial.total "proto" @@ fun r ->
  let msg =
    match R.u8 r with
    | 1 ->
        let client_id = R.u32 r in
        let resume_round = R.u32 r in
        let version = R.u32 r in
        let epoch = R.u32 r in
        Hello { client_id; resume_round; version; epoch }
    | 2 -> Submit (R.bytes r)
    | 3 ->
        let dealer = R.u32 r in
        let shares =
          match R.u8 r with
          | 0 -> None
          | 1 ->
              let c = checked_count (R.u32 r) in
              Some
                (List.init c (fun _ ->
                     let recipient = R.u32 r in
                     let s = r_scalar r in
                     (recipient, s)))
          | _ -> failwith "bad option tag"
        in
        Reveal_resp { dealer; shares }
    | 4 -> Bye
    | 5 ->
        let n = R.u32 r in
        let round = R.u32 r in
        let version = R.u32 r in
        let epoch = R.u32 r in
        let session = r_session r in
        Hello_ok { n; round; version; epoch; session }
    | 6 ->
        let round = R.u32 r in
        let stage =
          match Netsim.stage_of_index (R.u8 r) with
          | Some s -> s
          | None -> failwith "bad stage"
        in
        let sender = R.u32 r in
        let seq = R.u32 r in
        Ack { round; stage; sender; seq }
    | 7 ->
        let round = R.u32 r in
        let c = checked_count (R.u32 r) in
        let commits = Array.init c (fun _ -> R.bytes r) in
        Commits { round; commits }
    | 8 ->
        let round = R.u32 r in
        let c = checked_count (R.u32 r) in
        let shares =
          List.init c (fun _ ->
              let flagger = R.u32 r in
              let dealer = R.u32 r in
              let s = r_scalar r in
              (flagger, dealer, s))
        in
        Cleared { round; shares }
    | 9 ->
        let round = R.u32 r in
        let bcast = R.bytes r in
        Check { round; bcast }
    | 10 ->
        let round = R.u32 r in
        let honest = r_ints r in
        let malicious = r_ints r in
        Honest { round; honest; malicious }
    | 11 ->
        let dealer = R.u32 r in
        let requests = r_ints r in
        Reveal_req { dealer; requests }
    | 12 -> (
        let round = R.u32 r in
        match R.u8 r with
        | 0 ->
            let cstar = r_ints r in
            let aggregate =
              match R.u8 r with
              | 0 -> None
              | 1 ->
                  let c = checked_count (R.u32 r) in
                  Some (Array.init c (fun _ -> R.i32 r))
              | _ -> failwith "bad option tag"
            in
            Result { round; view = Rv_completed { cstar; aggregate } }
        | 1 ->
            let stage = r_string r in
            let survivors = R.u32 r in
            let needed = R.u32 r in
            Result { round; view = Rv_aborted_quorum { stage; survivors; needed } }
        | 2 -> Result { round; view = Rv_aborted_decode (r_ints r) }
        | _ -> failwith "bad result tag")
    | 13 -> Reject { reason = r_string r }
    | 14 ->
        let round = R.u32 r in
        let dropout = R.u32 r in
        Recover_req { round; dropout }
    | 15 ->
        let round = R.u32 r in
        let dropout = R.u32 r in
        let share =
          match R.u8 r with
          | 0 -> None
          | 1 -> Some (r_scalar r)
          | _ -> failwith "bad option tag"
        in
        let mask = r_scalar r in
        Recover_resp { round; dropout; share; mask }
    | 16 ->
        let current_round = R.u32 r in
        let session = r_session r in
        let reason = r_string r in
        Reject_stale { current_round; session; reason }
    | 17 -> Alive
    | _ -> failwith "unknown tag"
  in
  R.finish r;
  msg )
    body
