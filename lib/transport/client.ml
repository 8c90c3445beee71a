module Client_sm = Risefl_core.Client
module Driver = Risefl_core.Driver
module Membership = Risefl_core.Membership
module Serial = Risefl_core.Serial
module Setup = Risefl_core.Setup
module Params = Risefl_core.Params
module Topology = Risefl_topology.Topology
module Clock = Telemetry.Clock

let c_retransmits = Telemetry.Counter.make "transport.retransmits"
let c_reconnects = Telemetry.Counter.make "transport.reconnects"
let c_timeouts = Telemetry.Counter.make "transport.timeouts"
let c_bytes_out = Telemetry.Counter.make "transport.bytes.out"
let c_bytes_in = Telemetry.Counter.make "transport.bytes.in"

type config = {
  addr : Evloop.addr;
  setup : Setup.t;
  seed : string;
  id : int;
  behaviours : Driver.behaviour array;
  loris : bool;
  die_at : (int * Netsim.stage) option;
  max_connect_attempts : int;
}

(* everything this process keeps about one round; dropped once the next
   round opens (the server seals a round before broadcasting its Result,
   so a restarted server never asks about a finished round again) *)
type round_rec = {
  acked : bool array;  (* by stage index: the server's write-ahead ack *)
  outbox : Bytes.t option array;  (* by stage index: the framed submit *)
  mutable commits : Bytes.t array option;
  mutable check : Bytes.t option;
  mutable honest : (int list * int list) option;
  mutable result : Proto.result_view option;
  mutable cleared_done : bool;  (* the Cleared broadcast was applied *)
  (* the round's view, derived once when the round opens: the round's
     steps and its later recovery requests all answer from it *)
  mutable view : Driver.round_view option;
  (* reveal answers by sorted requests and recovery answers by dropout:
     a re-request after a server restart must answer identically *)
  reveals : (int list, (int * Curve25519.Scalar.t) list option) Hashtbl.t;
  recoveries : (int, (Curve25519.Scalar.t option * Curve25519.Scalar.t) option) Hashtbl.t;
}

type st = {
  cfg : config;
  client : Client_sm.t;
  session : Driver.session;
  (* the server's announcement (Hello_ok or Reject_stale): None until
     the handshake; only the stage deadline may differ in a later one *)
  mutable announced : Proto.session option;
  mutable heard_at : float;  (* when the last envelope from the server arrived *)
  (* the memoized elastic-cohort hook, derived from the announcement
     (None = static membership): every epoch is derived locally *)
  mutable cohort_for : (int -> Membership.epoch option) option;
  mutable epoch_applied : int;  (* last epoch applied to the session *)
  mutable resync : int option;  (* set by Reject_stale: fast-forward here *)
  mutable server_round : int option;  (* from the last Hello_ok *)
  n : int;
  log : string -> unit;
  backoff : Prng.Drbg.t;
  mutable fd : Unix.file_descr option;
  mutable reasm : Frame.Reassembler.t;
  mutable cur_round : int;
  mutable pending : Bytes.t option;  (* unacked submit, resent on reconnect *)
  rounds : (int, round_rec) Hashtbl.t;  (* rounds >= [cur_round] only *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let disconnect st =
  match st.fd with
  | Some fd ->
      close_quietly fd;
      st.fd <- None
  | None -> ()

let write_all st fd wire =
  let len = Bytes.length wire in
  let pos = ref 0 in
  while !pos < len do
    let chunk = if st.cfg.loris then 1 else len - !pos in
    let n = Unix.write fd wire !pos chunk in
    Telemetry.Counter.add c_bytes_out n;
    pos := !pos + n;
    if st.cfg.loris then Unix.sleepf 0.0005
  done

(* send one envelope; a socket error here surfaces on the next pump *)
let send_msg st msg =
  match st.fd with
  | None -> ()
  | Some fd -> (
      try write_all st fd (Frame.encode (Proto.encode msg))
      with Unix.Unix_error _ -> disconnect st)

(* Apply the membership epochs up to [upto] to the local session: the
   hook materializes them in round order, [Driver.apply_epoch] rotates
   the keys and installs each directory. Idempotent per epoch. *)
let fast_forward st ~upto =
  match st.cohort_for with
  | None -> ()
  | Some f ->
      for r = st.epoch_applied + 1 to upto do
        match f r with Some ep -> Driver.apply_epoch st.session ep | None -> ()
      done;
      if upto > st.epoch_applied then st.epoch_applied <- upto

(* the announcement every wait and derivation reads; the handshake in
   [run] establishes it before any round work *)
let announced st =
  match st.announced with Some a -> a | None -> invalid_arg "Client: no session announced yet"

(* adopt the server's session record: the first one fixes the derived
   state (the churn schedule depends on the round count), a later one
   may only move the stage deadline (a restarted server's own setting) *)
let adopt st (a : Proto.session) =
  (match st.announced with
  | None ->
      st.cohort_for <-
        Option.map
          (fun spec -> Driver.churn_cohort_for st.session ~spec ~rounds:a.Proto.rounds)
          a.Proto.churn
  | Some old ->
      if { old with Proto.deadline_s = a.Proto.deadline_s } <> a then
        failwith
          (Printf.sprintf "client %d: the server announced a different session mid-run" st.cfg.id));
  st.announced <- Some a

let n_stages = 4 (* commit, flag, proof, agg: Netsim.stage_index *)

(* the round's record; None once the round is behind this process *)
let record st round =
  if round < st.cur_round then None
  else
    match Hashtbl.find_opt st.rounds round with
    | Some r -> Some r
    | None ->
        let r =
          {
            acked = Array.make n_stages false;
            outbox = Array.make n_stages None;
            commits = None;
            check = None;
            honest = None;
            result = None;
            cleared_done = false;
            view = None;
            reveals = Hashtbl.create 1;
            recoveries = Hashtbl.create 1;
          }
        in
        Hashtbl.replace st.rounds round r;
        Some r

(* [round] opens here: earlier rounds' records are dropped, and a round
   behind [cur_round] (joined in flight, resync) never opens at all *)
let open_round st round =
  st.cur_round <- max st.cur_round round;
  Hashtbl.filter_map_inplace (fun r v -> if r < st.cur_round then None else Some v) st.rounds

(* the round's view: its epoch (and every earlier one) applied to the
   session, then the cohort and share graph the server derives too *)
let view_for st r ~round =
  let epoch =
    Option.bind st.cohort_for (fun f ->
        fast_forward st ~upto:round;
        f round)
  in
  let topology =
    match (announced st).Proto.degree with 0 -> Topology.Full | k -> Topology.Kregular k
  in
  let v = Driver.round_view ?epoch ~topology st.session ~round in
  r.view <- Some v;
  v

let rec connect st ~attempt =
  (* a stale-epoch rejection: fast-forward the locally derivable epochs
     to where the server says the session is, then re-enroll — under a
     jittered pause so a herd of stale clients doesn't stampede *)
  (match st.resync with
  | Some r ->
      st.resync <- None;
      let jitter = 0.02 +. (float_of_int (Prng.Drbg.uniform_int st.backoff 200) /. 2000.0) in
      Unix.sleepf jitter;
      fast_forward st ~upto:(r - 1);
      open_round st r
  | None -> ());
  if attempt > st.cfg.max_connect_attempts then
    failwith
      (Printf.sprintf "client %d: server unreachable after %d attempts" st.cfg.id
         st.cfg.max_connect_attempts);
  let sock () =
    let domain =
      match st.cfg.addr with Evloop.Tcp _ -> Unix.PF_INET | Evloop.Unix_sock _ -> Unix.PF_UNIX
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Evloop.sockaddr_of_addr st.cfg.addr);
      Some fd
    with Unix.Unix_error _ ->
      close_quietly fd;
      None
  in
  match sock () with
  | Some fd ->
      if attempt > 0 then Telemetry.Counter.incr c_reconnects;
      st.fd <- Some fd;
      st.reasm <- Frame.Reassembler.create ();
      send_msg st
        (Proto.Hello
           {
             client_id = st.cfg.id;
             resume_round = st.cur_round;
             version = Proto.proto_version;
             epoch = st.epoch_applied;
           });
      (* the write-ahead ack may have been lost with the old connection:
         retransmit the in-flight frame, the server re-acks or collects *)
      (match st.pending with
      | Some framed ->
          Telemetry.Counter.incr c_retransmits;
          send_msg st (Proto.Submit framed)
      | None -> ())
  | None ->
      (* jittered exponential backoff, deterministic in (seed, id) *)
      let base = 0.05 *. (2.0 ** float_of_int (min attempt 5)) in
      let jitter = 0.5 +. (float_of_int (Prng.Drbg.uniform_int st.backoff 1000) /. 1000.0) in
      Unix.sleepf (Float.min 2.0 (base *. jitter));
      connect st ~attempt:(attempt + 1)

let ensure_connected st = if st.fd = None then connect st ~attempt:0

let behaviour st = st.cfg.behaviours.(st.cfg.id - 1)

(* a cached answer, computed from the round's view on first request (no
   view: the round never opened here, so nothing to answer) *)
let answer st r tbl key ~round ~what f =
  match Hashtbl.find_opt tbl key with
  | Some ans -> ans
  | None ->
      let ans = Option.bind r.view (fun v -> f v (behaviour st) st.client) in
      if Option.is_none ans then st.log (Printf.sprintf "round %d: no %s answer" round what);
      Hashtbl.replace tbl key ans;
      ans

(* the broadcasts are set-once: a replay after reconnect changes nothing *)
let dispatch st msg =
  let on_round round f = Option.iter f (record st round) in
  match msg with
  | Proto.Hello_ok { round; session; _ } ->
      adopt st session;
      st.server_round <- Some round
  | Proto.Ack { round; stage; sender; seq = _ } ->
      if sender = st.cfg.id then begin
        on_round round (fun r -> r.acked.(Netsim.stage_index stage) <- true);
        st.pending <- None
      end
  | Proto.Commits { round; commits } ->
      on_round round (fun r -> if r.commits = None then r.commits <- Some commits)
  | Proto.Cleared { round; shares } ->
      on_round round (fun r ->
          if not r.cleared_done then begin
            r.cleared_done <- true;
            List.iter
              (fun (flagger, dealer, value) ->
                if flagger = st.cfg.id then
                  Client_sm.accept_cleared_share st.client ~from:dealer ~value)
              shares
          end)
  | Proto.Check { round; bcast } ->
      on_round round (fun r -> if r.check = None then r.check <- Some bcast)
  | Proto.Honest { round; honest; malicious } ->
      on_round round (fun r -> if r.honest = None then r.honest <- Some (honest, malicious))
  | Proto.Result { round; view } ->
      on_round round (fun r -> if r.result = None then r.result <- Some view)
  | Proto.Reveal_req { dealer; requests } ->
      if dealer = st.cfg.id then
        (* a reveal request names no round: it belongs to the round in
           flight, and a dealer re-deals every round *)
        on_round st.cur_round (fun r ->
            let shares =
              answer st r r.reveals (List.sort_uniq compare requests) ~round:st.cur_round
                ~what:"reveal" (Driver.reveal_step ~requests)
            in
            send_msg st (Proto.Reveal_resp { dealer; shares }))
  | Proto.Recover_req { round; dropout } ->
      on_round round (fun r ->
          match
            answer st r r.recoveries dropout ~round ~what:"recovery"
              (Driver.recovery_step ~dropout)
          with
          | Some (share, mask) -> send_msg st (Proto.Recover_resp { round; dropout; share; mask })
          | None -> ())
  | Proto.Reject_stale { current_round; session; reason } ->
      st.log (Printf.sprintf "stale membership epoch: %s" reason);
      adopt st session;
      st.resync <- Some current_round;
      disconnect st
  | Proto.Reject { reason } -> failwith (Printf.sprintf "client %d rejected: %s" st.cfg.id reason)
  | Proto.Alive -> () (* [pump] restarted the wait clock *)
  | Proto.Hello _ | Proto.Submit _ | Proto.Reveal_resp _ | Proto.Recover_resp _ | Proto.Bye ->
      (* client-to-server traffic echoed back: ignore *)
      ()

(* one read round: select with a timeout, feed the reassembler, dispatch *)
let pump st ~until_s =
  ensure_connected st;
  match st.fd with
  | None -> ()
  | Some fd -> (
      let timeout = Float.max 0.0 (Float.min 0.1 (until_s -. Clock.now_s ())) in
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ -> (
          let buf = Bytes.create 65536 in
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
              disconnect st;
              connect st ~attempt:0
          | n -> (
              Telemetry.Counter.add c_bytes_in n;
              match Frame.Reassembler.feed st.reasm buf ~off:0 ~len:n with
              | Error e ->
                  (* the server never sends malformed frames: treat as a
                     broken connection and start clean *)
                  st.log (Printf.sprintf "reassembly error (%s); reconnecting" e);
                  disconnect st;
                  connect st ~attempt:0
              | Ok bodies ->
                  List.iter
                    (fun body ->
                      match Proto.decode body with
                      | Ok msg ->
                          st.heard_at <- Clock.now_s ();
                          dispatch st msg
                      | Error e when st.server_round = None ->
                          (* the first envelope on a connection is the
                             announcement: one this build cannot decode
                             is a session it cannot follow *)
                          failwith
                            (Printf.sprintf "client %d: undecodable session announcement (%s)"
                               st.cfg.id (Serial.error_to_string e))
                      | Error _ -> st.log "undecodable envelope from server; dropped")
                    bodies)
          | exception Unix.Unix_error _ ->
              disconnect st;
              connect st ~attempt:0)
      | exception Unix.Unix_error _ -> ())

(* The wait rule: 2·D without a word from the server. The server is
   never quiet for longer than D plus its compute: a stage's collection
   lasts at most D and ends in a broadcast, each reveal or recovery
   sub-exchange (up to D apiece) opens with an Alive, and a restarted
   server announces itself and re-collects under a fresh D. So every
   envelope from the server restarts the clock. *)
let wait_deadline st ~start =
  Float.max start st.heard_at +. (2.0 *. (announced st).Proto.deadline_s)

(* wait until [pred] holds; a Result for the round (the server resolved
   it without us) or the deadline degrade to the quorum path *)
let wait st r pred =
  let start = Clock.now_s () in
  let rec go () =
    if pred r then `Got
    else if r.result <> None then `Resolved
    else
      let deadline = wait_deadline st ~start in
      if Clock.now_s () >= deadline then begin
        Telemetry.Counter.incr c_timeouts;
        `Timeout
      end
      else begin
        pump st ~until_s:deadline;
        go ()
      end
  in
  go ()

(* submit-until-acked under exponential backoff (quorum path on deadline) *)
let submit st r ~round ~stage payload =
  (match st.cfg.die_at with
  | Some (dr, ds) when dr = round && ds = stage ->
      st.log
        (Printf.sprintf "dying before %s of round %d" (Netsim.stage_to_string stage) round);
      disconnect st;
      exit 0
  | _ -> ());
  let stage_ix = Netsim.stage_index stage in
  let framed =
    match r.outbox.(stage_ix) with
    | Some framed -> framed
    | None ->
        let framed =
          Serial.encode_framed ~round ~stage:stage_ix ~sender:st.cfg.id ~seq:0 payload
        in
        r.outbox.(stage_ix) <- Some framed;
        framed
  in
  st.pending <- Some framed;
  let start = Clock.now_s () in
  let deadline () = wait_deadline st ~start in
  let open_ () = (not r.acked.(stage_ix)) && r.result = None in
  let window = ref 0.25 in
  let attempt = ref 0 in
  while open_ () && Clock.now_s () < deadline () do
    ensure_connected st;
    if !attempt > 0 then Telemetry.Counter.incr c_retransmits;
    incr attempt;
    send_msg st (Proto.Submit framed);
    let wdl = Clock.now_s () +. !window in
    while open_ () && Clock.now_s () < Float.min wdl (deadline ()) do
      pump st ~until_s:(Float.min wdl (deadline ()))
    done;
    window := Float.min 4.0 (!window *. 2.0)
  done;
  if not r.acked.(stage_ix) then Telemetry.Counter.incr c_timeouts;
  st.pending <- None

(* the server's validated commit view; it never sends an undecodable one *)
let decode_commits bytes =
  Array.map
    (fun b ->
      match Serial.decode_commit b with
      | Ok c -> c
      | Error e -> failwith ("client: commit broadcast undecodable: " ^ Serial.error_to_string e))
    bytes

let run_round st ~round =
  let cfg = st.cfg in
  open_round st round;
  match record st round with
  | None ->
      (* a round this process missed (joined in flight, or resync): the
         session already resolved it, nothing to do *)
      None
  | Some r ->
  (* freeze the round's membership first: the epoch rotates keys and
     installs the directory before any frame is built *)
  let v = view_for st r ~round in
  if not v.Driver.in_cohort.(cfg.id - 1) then begin
    st.log (Printf.sprintf "round %d: outside this round's cohort; sitting out" round);
    None
  end
  else begin
  let b = behaviour st and c = st.client in
  let send stage encode = Option.iter (fun m -> submit st r ~round ~stage (encode m)) in
  (* the update derivation scales the session's Oversized clients *)
  let attackers =
    List.filter
      (fun id -> match cfg.behaviours.(id - 1) with Driver.Oversized _ -> true | _ -> false)
      (List.init st.n succ)
  in
  let p = cfg.setup.Setup.params in
  let update =
    (Updates.make ~n:st.n ~d:p.Params.d ~bound:p.Params.bound_b ~seed:cfg.seed ~attackers ~round).(
      cfg.id - 1)
  in
  send Netsim.Commit Serial.encode_commit_msg (Driver.commit_step v b c ~update);
  (* --- flags (needs the server's validated commit set) --- *)
  (match wait st r (fun r -> r.commits <> None) with
  | `Got ->
      let commits = decode_commits (Option.get r.commits) in
      send Netsim.Flag Serial.encode_flag_msg (Driver.flag_step v b c ~commits)
  | `Resolved | `Timeout -> ());
  (* --- probabilistic check + proof --- *)
  (match wait st r (fun r -> r.check <> None) with
  | `Got -> (
      let s, hs =
        match Serial.decode_broadcast_r (Option.get r.check) with
        | Ok v -> v
        | Error e ->
            failwith ("client: check broadcast undecodable: " ^ Serial.error_to_string e)
      in
      (* no h_t tables: each would serve only two multiplications, which
         save less than a table build costs *)
      match Driver.proof_step v b c ~s ~hs with
      | Some proof -> submit st r ~round ~stage:Netsim.Proof (Serial.encode_proof_msg proof)
      | None ->
          (* the rational-adversary move: the sampled projections would
             betray the update, stay silent *)
          st.log (Printf.sprintf "round %d: staying silent at proof stage" round))
  | `Resolved | `Timeout -> ());
  (* --- aggregation --- *)
  (match wait st r (fun r -> r.honest <> None) with
  | `Got ->
      let honest, malicious = Option.get r.honest in
      send Netsim.Agg Serial.encode_agg_msg (Driver.agg_step v b c ~honest ~malicious)
  | `Resolved | `Timeout -> ());
  (* --- result --- *)
  match wait st r (fun r -> r.result <> None) with
  | `Got | `Resolved -> r.result
  | `Timeout ->
      st.log (Printf.sprintf "round %d: no result before deadline" round);
      None
  end

(* a server answers a Hello at its next poll, at most one stage's
   compute away: a listener that announces nothing for this long is not
   a server this client can follow *)
let handshake_timeout_s = 60.0

let run ?(log = fun _ -> ()) cfg =
  (* a dying server mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let n = cfg.setup.Setup.params.Params.n_clients in
  if cfg.id < 1 || cfg.id > n then invalid_arg "Client.run: id out of range";
  if Array.length cfg.behaviours <> n then invalid_arg "Client.run: need one behaviour per client";
  (* the same session as the server and every sibling: only our own
     client's DRBG fork ever advances in this process *)
  let session = Driver.create_session cfg.setup ~seed:cfg.seed in
  let st =
    {
      cfg;
      client = (Driver.session_clients session).(cfg.id - 1);
      session;
      announced = None;
      heard_at = 0.0;
      cohort_for = None;
      epoch_applied = 0;
      resync = None;
      server_round = None;
      n;
      log;
      backoff = Prng.Drbg.create_string (Printf.sprintf "%s/backoff/%d" cfg.seed cfg.id);
      fd = None;
      reasm = Frame.Reassembler.create ();
      cur_round = 1;
      pending = None;
      rounds = Hashtbl.create 4;
    }
  in
  (* the one handshake: learn the session and where it stands before any
     round work. Either Hello_ok answers directly, or a stale-epoch
     rejection routes through the resync path (reconnect fast-forwards
     and re-enrolls) until one Hello is accepted. A lost connection
     reconnects under the bounded backoff. *)
  connect st ~attempt:0;
  let give_up = Clock.now_s () +. handshake_timeout_s in
  while st.server_round = None do
    if Clock.now_s () >= give_up then
      failwith
        (Printf.sprintf "client %d: no session announcement within %.0f s of connecting" cfg.id
           handshake_timeout_s);
    pump st ~until_s:give_up
  done;
  let a = announced st in
  (match st.server_round with
  | Some r when r > 1 ->
      log (Printf.sprintf "joined in flight: session is at round %d" r);
      fast_forward st ~upto:(r - 1);
      open_round st r
  | _ -> ());
  let results = ref [] in
  for round = 1 to a.Proto.rounds do
    match run_round st ~round with
    | Some view -> results := (round, view) :: !results
    | None -> ()
  done;
  send_msg st Proto.Bye;
  disconnect st;
  List.rev !results
