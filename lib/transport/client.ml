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
  rounds : int;
  d : int;
  bound : float;
  behaviours : Driver.behaviour array;
  deadline_s : float;
  loris : bool;
  die_at : (int * Netsim.stage) option;
  max_connect_attempts : int;
  topology : Topology.mode;
  churn : Membership.spec option;
      (* elastic membership: derive each round's cohort and epoch locally
         from the seeded churn schedule — must match the server's spec *)
  rejoin : bool;
      (* re-enroll into a session already in flight: learn the current
         round from the server, fast-forward the local epochs, skip the
         rounds this process missed *)
}

type st = {
  cfg : config;
  client : Client_sm.t;
  session : Driver.session;
  (* the memoized elastic-cohort hook (None = static membership): every
     epoch is derived locally — the schedule is a pure function of the
     session seed, so no membership bytes ever cross the wire *)
  cohort_for : (int -> Membership.epoch option) option;
  mutable epoch_applied : int;  (* last epoch applied to the session *)
  mutable skip_until : int;  (* first round this process participates in *)
  mutable resync : int option;  (* set by Reject_stale: fast-forward here *)
  mutable server_round : int option;  (* from the last Hello_ok *)
  n : int;
  log : string -> unit;
  backoff : Prng.Drbg.t;
  mutable fd : Unix.file_descr option;
  mutable reasm : Frame.Reassembler.t;
  mutable cur_round : int;
  mutable pending : Bytes.t option;  (* unacked submit, resent on reconnect *)
  acked : (int * int, unit) Hashtbl.t;  (* (round, stage index) *)
  commits : (int, Bytes.t array) Hashtbl.t;
  checks : (int, Bytes.t) Hashtbl.t;
  honests : (int, int list * int list) Hashtbl.t;
  results : (int, Proto.result_view) Hashtbl.t;
  cleared_done : (int, unit) Hashtbl.t;  (* rounds whose Cleared was applied *)
  (* each round's view, derived once when the round opens: the round's
     steps and its later recovery requests all answer from it *)
  views : (int, Driver.round_view) Hashtbl.t;
  (* reveal answers cached by (round, sorted requests) and recovery
     answers by (round, dropout): a re-request after a server restart
     must answer identically without re-deriving *)
  reveals : (int * int list, (int * Curve25519.Scalar.t) list option) Hashtbl.t;
  recoveries : (int * int, (Curve25519.Scalar.t option * Curve25519.Scalar.t) option) Hashtbl.t;
  outbox : (int * int, Bytes.t) Hashtbl.t;  (* cached framed submit bytes *)
  (* the share topology in force — the server's Hello_ok announcement
     wins over the locally configured mode, so a client started with the
     wrong flag still derives the graph the cohort agreed on *)
  mutable topo_mode : Topology.mode;
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

(* the round's view: its epoch (and every earlier one) applied to the
   session, then the cohort and share graph the server derives too *)
let view_for st ~round =
  let epoch =
    Option.bind st.cohort_for (fun f ->
        fast_forward st ~upto:round;
        f round)
  in
  let v = Driver.round_view ?epoch ~topology:st.topo_mode st.session ~round in
  Hashtbl.replace st.views round v;
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
      st.skip_until <- max st.skip_until r;
      st.cur_round <- max st.cur_round r
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
             rejoin = st.cfg.rejoin;
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

(* a cached answer, computed from [round]'s view on first request (no
   view: the round never opened here, so nothing to answer) *)
let answer st tbl key ~round ~what f =
  match Hashtbl.find_opt tbl key with
  | Some ans -> ans
  | None ->
      let ans =
        Option.bind (Hashtbl.find_opt st.views round) (fun v -> f v (behaviour st) st.client)
      in
      if Option.is_none ans then st.log (Printf.sprintf "round %d: no %s answer" round what);
      Hashtbl.replace tbl key ans;
      ans

let dispatch st msg =
  match msg with
  | Proto.Hello_ok { degree; round; _ } ->
      st.server_round <- Some round;
      st.topo_mode <- (if degree > 0 then Topology.Kregular degree else Topology.Full)
  | Proto.Ack { round; stage; sender; seq = _ } ->
      if sender = st.cfg.id then begin
        Hashtbl.replace st.acked (round, Netsim.stage_index stage) ();
        st.pending <- None
      end
  | Proto.Commits { round; commits } ->
      if not (Hashtbl.mem st.commits round) then Hashtbl.replace st.commits round commits
  | Proto.Cleared { round; shares } ->
      (* set-once: a replay after reconnect must not double-apply *)
      if not (Hashtbl.mem st.cleared_done round) then begin
        Hashtbl.replace st.cleared_done round ();
        List.iter
          (fun (flagger, dealer, value) ->
            if flagger = st.cfg.id then
              Client_sm.accept_cleared_share st.client ~from:dealer ~value)
          shares
      end
  | Proto.Check { round; bcast } ->
      if not (Hashtbl.mem st.checks round) then Hashtbl.replace st.checks round bcast
  | Proto.Honest { round; honest; malicious } ->
      if not (Hashtbl.mem st.honests round) then
        Hashtbl.replace st.honests round (honest, malicious)
  | Proto.Result { round; view } ->
      if not (Hashtbl.mem st.results round) then Hashtbl.replace st.results round view
  | Proto.Reveal_req { dealer; requests } ->
      if dealer = st.cfg.id then begin
        (* a reveal request names no round: it belongs to the round in
           flight, and a dealer re-deals every round *)
        let round = st.cur_round in
        let shares =
          answer st st.reveals (round, List.sort_uniq compare requests) ~round ~what:"reveal"
            (Driver.reveal_step ~requests)
        in
        send_msg st (Proto.Reveal_resp { dealer; shares })
      end
  | Proto.Recover_req { round; dropout } -> (
      match
        answer st st.recoveries (round, dropout) ~round ~what:"recovery"
          (Driver.recovery_step ~dropout)
      with
      | Some (share, mask) -> send_msg st (Proto.Recover_resp { round; dropout; share; mask })
      | None -> ())
  | Proto.Reject_stale { current_round; reason } ->
      st.log (Printf.sprintf "stale membership epoch: %s" reason);
      st.resync <- Some current_round;
      disconnect st
  | Proto.Reject { reason } -> failwith (Printf.sprintf "client %d rejected: %s" st.cfg.id reason)
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
                      | Ok msg -> dispatch st msg
                      | Error _ -> st.log "undecodable envelope from server; dropped")
                    bodies)
          | exception Unix.Unix_error _ ->
              disconnect st;
              connect st ~attempt:0)
      | exception Unix.Unix_error _ -> ())

(* wait until [pred] holds; a Result for the round (the server resolved
   it without us) or the deadline degrade to the quorum path *)
let wait st ~round pred =
  let deadline = Clock.now_s () +. st.cfg.deadline_s in
  let rec go () =
    if pred () then `Got
    else if Hashtbl.mem st.results round then `Resolved
    else if Clock.now_s () >= deadline then begin
      Telemetry.Counter.incr c_timeouts;
      `Timeout
    end
    else begin
      pump st ~until_s:deadline;
      go ()
    end
  in
  go ()

let framed_of st ~round ~stage payload =
  let stage_ix = Netsim.stage_index stage in
  match Hashtbl.find_opt st.outbox (round, stage_ix) with
  | Some framed -> framed
  | None ->
      let framed =
        Serial.encode_framed ~round ~stage:stage_ix ~sender:st.cfg.id ~seq:0 payload
      in
      Hashtbl.replace st.outbox (round, stage_ix) framed;
      framed

(* submit-until-acked under exponential backoff (quorum path on deadline) *)
let submit st ~round ~stage payload =
  (match st.cfg.die_at with
  | Some (r, s) when r = round && s = stage ->
      st.log
        (Printf.sprintf "dying before %s of round %d" (Netsim.stage_to_string stage) round);
      disconnect st;
      exit 0
  | _ -> ());
  let stage_ix = Netsim.stage_index stage in
  let framed = framed_of st ~round ~stage payload in
  st.pending <- Some framed;
  let deadline = Clock.now_s () +. st.cfg.deadline_s in
  let window = ref 0.25 in
  let attempt = ref 0 in
  let acked () = Hashtbl.mem st.acked (round, stage_ix) in
  while (not (acked ())) && (not (Hashtbl.mem st.results round)) && Clock.now_s () < deadline do
    ensure_connected st;
    if !attempt > 0 then Telemetry.Counter.incr c_retransmits;
    incr attempt;
    send_msg st (Proto.Submit framed);
    let wdl = Float.min deadline (Clock.now_s () +. !window) in
    while (not (acked ())) && (not (Hashtbl.mem st.results round)) && Clock.now_s () < wdl do
      pump st ~until_s:wdl
    done;
    window := Float.min 4.0 (!window *. 2.0)
  done;
  if not (acked ()) then Telemetry.Counter.incr c_timeouts;
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
  (* a round this process missed (rejoin/resync): the session already
     resolved it, nothing to do *)
  if round < st.skip_until then None
  else begin
  (* freeze the round's membership first: the epoch rotates keys and
     installs the directory before any frame is built *)
  let v = view_for st ~round in
  if not v.Driver.in_cohort.(cfg.id - 1) then begin
    st.log (Printf.sprintf "round %d: outside this round's cohort; sitting out" round);
    None
  end
  else begin
  st.cur_round <- round;
  let b = behaviour st and c = st.client in
  let send stage encode = Option.iter (fun m -> submit st ~round ~stage (encode m)) in
  (* the update derivation scales the session's Oversized clients *)
  let attackers =
    List.filter
      (fun id -> match cfg.behaviours.(id - 1) with Driver.Oversized _ -> true | _ -> false)
      (List.init st.n succ)
  in
  let update =
    (Updates.make ~n:st.n ~d:cfg.d ~bound:cfg.bound ~seed:cfg.seed ~attackers ~round).(cfg.id - 1)
  in
  send Netsim.Commit Serial.encode_commit_msg (Driver.commit_step v b c ~update);
  (* --- flags (needs the server's validated commit set) --- *)
  (match wait st ~round (fun () -> Hashtbl.mem st.commits round) with
  | `Got ->
      let commits = decode_commits (Hashtbl.find st.commits round) in
      send Netsim.Flag Serial.encode_flag_msg (Driver.flag_step v b c ~commits)
  | `Resolved | `Timeout -> ());
  (* --- probabilistic check + proof --- *)
  (match wait st ~round (fun () -> Hashtbl.mem st.checks round) with
  | `Got -> (
      let s, hs =
        match Serial.decode_broadcast_r (Hashtbl.find st.checks round) with
        | Ok v -> v
        | Error e ->
            failwith ("client: check broadcast undecodable: " ^ Serial.error_to_string e)
      in
      let hs_tables = Parallel.parallel_map Curve25519.Point.Table.make hs in
      match Driver.proof_step ~hs_tables v b c ~s ~hs with
      | Some proof -> submit st ~round ~stage:Netsim.Proof (Serial.encode_proof_msg proof)
      | None ->
          (* the rational-adversary move: the sampled projections would
             betray the update, stay silent *)
          st.log (Printf.sprintf "round %d: staying silent at proof stage" round))
  | `Resolved | `Timeout -> ());
  (* --- aggregation --- *)
  (match wait st ~round (fun () -> Hashtbl.mem st.honests round) with
  | `Got ->
      let honest, malicious = Hashtbl.find st.honests round in
      send Netsim.Agg Serial.encode_agg_msg (Driver.agg_step v b c ~honest ~malicious)
  | `Resolved | `Timeout -> ());
  (* --- result --- *)
  match wait st ~round (fun () -> Hashtbl.mem st.results round) with
  | `Got | `Resolved -> Hashtbl.find_opt st.results round
  | `Timeout ->
      st.log (Printf.sprintf "round %d: no result before deadline" round);
      None
  end
  end

let run ?(log = fun _ -> ()) cfg =
  (* a dying server mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let n = cfg.setup.Setup.params.Params.n_clients in
  if cfg.id < 1 || cfg.id > n then invalid_arg "Client.run: id out of range";
  if Array.length cfg.behaviours <> n then invalid_arg "Client.run: need one behaviour per client";
  (* the same session as the server and every sibling: only our own
     client's DRBG fork ever advances in this process *)
  let session = Driver.create_session cfg.setup ~seed:cfg.seed in
  let cohort_for =
    Option.map (fun spec -> Driver.churn_cohort_for session ~spec ~rounds:cfg.rounds) cfg.churn
  in
  let st =
    {
      cfg;
      client = (Driver.session_clients session).(cfg.id - 1);
      session;
      cohort_for;
      epoch_applied = 0;
      skip_until = 1;
      resync = None;
      server_round = None;
      n;
      log;
      backoff = Prng.Drbg.create_string (Printf.sprintf "%s/backoff/%d" cfg.seed cfg.id);
      fd = None;
      reasm = Frame.Reassembler.create ();
      cur_round = 1;
      pending = None;
      acked = Hashtbl.create 16;
      commits = Hashtbl.create 4;
      checks = Hashtbl.create 4;
      honests = Hashtbl.create 4;
      results = Hashtbl.create 4;
      cleared_done = Hashtbl.create 4;
      views = Hashtbl.create 4;
      reveals = Hashtbl.create 4;
      recoveries = Hashtbl.create 4;
      outbox = Hashtbl.create 16;
      topo_mode = cfg.topology;
    }
  in
  connect st ~attempt:0;
  (* rejoin bootstrap: learn where the session is before doing any round
     work. Either Hello_ok answers directly, or a stale-epoch rejection
     routes through the resync path (reconnect fast-forwards and
     re-enrolls) until one Hello is accepted. *)
  if cfg.rejoin then begin
    let deadline = Clock.now_s () +. cfg.deadline_s in
    while st.server_round = None && Clock.now_s () < deadline do
      pump st ~until_s:deadline
    done;
    match st.server_round with
    | Some r when r > 1 ->
        log (Printf.sprintf "re-enrolled: session is at round %d" r);
        fast_forward st ~upto:(r - 1);
        st.skip_until <- max st.skip_until r;
        st.cur_round <- max st.cur_round r
    | Some _ -> ()
    | None -> failwith (Printf.sprintf "client %d: rejoin handshake timed out" cfg.id)
  end;
  let results = ref [] in
  for round = 1 to cfg.rounds do
    match run_round st ~round with
    | Some view -> results := (round, view) :: !results
    | None -> ()
  done;
  send_msg st Proto.Bye;
  disconnect st;
  List.rev !results
