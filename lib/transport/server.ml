module Driver = Risefl_core.Driver
module Serial = Risefl_core.Serial
module Server_sm = Risefl_core.Server
module Round_log = Risefl_core.Round_log
module Setup = Risefl_core.Setup
module Params = Risefl_core.Params
module Topology = Risefl_topology.Topology
module Clock = Telemetry.Clock

let c_timeouts = Telemetry.Counter.make "transport.timeouts"
let c_retransmits = Telemetry.Counter.make "transport.retransmits"
let c_late = Telemetry.Counter.make "transport.late"
let c_spoofed = Telemetry.Counter.make "transport.spoofed"

type config = {
  addr : Evloop.addr;
  setup : Setup.t;
  seed : string;
  rounds : int;
  stage_deadline_s : float;
  wal_path : string option;
  crash : (int * Netsim.stage * Driver.crash_point) option;
  stream : Risefl_core.Server.stream_cfg option;
  topology : Topology.mode;
  churn : Risefl_core.Membership.spec option;
      (* elastic membership: derive each round's cohort from the seeded
         churn schedule (a pure function of the session seed) *)
}

(* Cleared shares are addressed: only the flagger that requested the
   reveal sees the plaintext share. Everything else is broadcast. *)
type target = All | One of int

type st = {
  loop : Evloop.t;
  n : int;
  session : Driver.session;
  (* the session record every Hello_ok announces *)
  announced : Proto.session;
  log : string -> unit;
  (* (round, stage index, sender, seq) already in the WAL: a retransmit
     of any of these is re-acked without touching the driver *)
  acked : (int * int * int * int, unit) Hashtbl.t;
  (* broadcasts already emitted, oldest first, for Hello-time replay to
     a (re)connecting client *)
  bcast_log : (int * target * Proto.msg) Queue.t;
  (* frames that arrived before their stage's collector started *)
  inbox : (int * int, (int * int * Bytes.t) Queue.t) Hashtbl.t;
  reveal_box : (int, (int * Curve25519.Scalar.t) list option) Hashtbl.t;
  (* (round, dropout, responder) -> the responder's recovery answer *)
  recover_box :
    (int * int * int, Curve25519.Scalar.t option * Curve25519.Scalar.t) Hashtbl.t;
  (* the elastic cohort hook (None = static membership), memoized per
     round: the collector asks for the epoch the driver already froze *)
  cohort_for : (int -> Risefl_core.Membership.epoch option) option;
  (* protocol violators awaiting conviction by the next collector *)
  mutable pending_convict : int list;
  mutable pos : int * int;  (* last (round, stage index) a collector ran *)
  mutable round_now : int;
}

(* an intentionally undecodable frame: pushing it through the driver's
   intake walks the sender down the normal conviction path into C* *)
let violation_frame = Bytes.of_string "!transport-violation"

let key_of hdr =
  (hdr.Serial.fh_round, hdr.Serial.fh_stage, hdr.Serial.fh_sender, hdr.Serial.fh_seq)

let ack_of hdr stage =
  Proto.Ack
    {
      round = hdr.Serial.fh_round;
      stage;
      sender = hdr.Serial.fh_sender;
      seq = hdr.Serial.fh_seq;
    }

let send_bcast st ~round target msg =
  Queue.add (round, target, msg) st.bcast_log;
  match target with
  | All -> Evloop.broadcast st.loop msg
  | One id -> (
      match Evloop.conn_of_id st.loop id with
      | Some c -> Evloop.send st.loop c msg
      | None -> ())

let convict st id =
  if not (List.mem id st.pending_convict) then begin
    st.log (Printf.sprintf "convicting client %d for a transport violation" id);
    st.pending_convict <- st.pending_convict @ [ id ]
  end

let inbox_queue st key =
  match Hashtbl.find_opt st.inbox key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace st.inbox key q;
      q

let handle_submit st conn framed =
  match Serial.decode_framed framed with
  | Error _ ->
      (* CRC failure through a TCP stream is line noise, not protocol
         abuse: drop without ack, the client retransmits *)
      ()
  | Ok (hdr, payload) -> (
      match (Evloop.conn_id conn, Netsim.stage_of_index hdr.Serial.fh_stage) with
      | None, _ -> Evloop.close_conn st.loop conn
      | Some _, None ->
          (* an unknown stage index inside a CRC-clean frame: noise *)
          ()
      | Some id, _ when hdr.Serial.fh_sender <> id ->
          (* a registered client speaking with someone else's sender id *)
          Telemetry.Counter.incr c_spoofed;
          convict st id;
          Evloop.close_conn st.loop conn
      | Some _, Some stage ->
          let key = key_of hdr in
          if Hashtbl.mem st.acked key then begin
            Telemetry.Counter.incr c_retransmits;
            Evloop.send st.loop conn (ack_of hdr stage)
          end
          else begin
            let r, s, _, _ = key in
            if (r, s) <= st.pos then begin
              (* a stage the lifecycle already left behind (quorum moved
                 on): ack so the client stops retrying, count it late *)
              Telemetry.Counter.incr c_late;
              Evloop.send st.loop conn (ack_of hdr stage)
            end
            else
              (* the driver's intake takes the inner payload: the frame
                 header's job (routing, dedup key) is done here *)
              Queue.add
                (hdr.Serial.fh_sender, hdr.Serial.fh_seq, payload)
                (inbox_queue st (r, s))
          end)

let handle_event st = function
  | Evloop.Accepted _ -> ()
  | Evloop.Msg (conn, msg) -> (
      match msg with
      | Proto.Hello { client_id; resume_round; version } ->
          if client_id < 1 || client_id > st.n then begin
            Evloop.send st.loop conn (Proto.Reject { reason = "unknown client id" });
            Evloop.close_conn st.loop conn
          end
          else if version <> Proto.proto_version then begin
            (* one protocol revision: a peer of any other cannot follow
               the session — turn it away cleanly instead of convicting
               it mid-round *)
            Evloop.send st.loop conn
              (Proto.Reject
                 {
                   reason =
                     Printf.sprintf "protocol version %d: this server speaks version %d" version
                       Proto.proto_version;
                 });
            Evloop.close_conn st.loop conn
          end
          else begin
            (match Evloop.conn_of_id st.loop client_id with
            | Some old when old != conn -> Evloop.close_conn st.loop old
            | _ -> ());
            Evloop.set_conn_id conn client_id;
            st.log
              (Printf.sprintf "client %d enrolled at round %d (resuming from round %d)" client_id
                 st.round_now resume_round);
            (* the round in flight is all a client needs to catch up:
               it derives every earlier round's membership itself *)
            Evloop.send st.loop conn
              (Proto.Hello_ok
                 { round = st.round_now; version = Proto.proto_version; session = st.announced });
            (* replay the broadcasts the client may have missed *)
            Queue.iter
              (fun (round, target, msg) ->
                if round >= resume_round then
                  match target with
                  | All -> Evloop.send st.loop conn msg
                  | One id when id = client_id -> Evloop.send st.loop conn msg
                  | One _ -> ())
              st.bcast_log
          end
      | Proto.Submit framed -> handle_submit st conn framed
      | Proto.Reveal_resp { dealer; shares } -> (
          match Evloop.conn_id conn with
          | Some id when id = dealer -> Hashtbl.replace st.reveal_box dealer shares
          | _ -> ())
      | Proto.Recover_resp { round; dropout; share; mask } -> (
          match Evloop.conn_id conn with
          | Some id -> Hashtbl.replace st.recover_box (round, dropout, id) (share, mask)
          | None -> ())
      | Proto.Bye -> Evloop.close_conn st.loop conn
      | _ ->
          (* server-to-client message types coming back at us *)
          (match Evloop.conn_id conn with Some id -> convict st id | None -> ());
          Evloop.close_conn st.loop conn)
  | Evloop.Violation (conn, reason) -> (
      match Evloop.conn_id conn with
      | Some id ->
          st.log (Printf.sprintf "client %d: %s" id reason);
          convict st id
      | None -> st.log (Printf.sprintf "%s: %s" (Evloop.conn_peer conn) reason))
  | Evloop.Closed _ -> ()

let pump st ~until_s =
  let timeout = Float.max 0.0 (Float.min 0.05 (until_s -. Clock.now_s ())) in
  List.iter (handle_event st) (Evloop.poll st.loop ~timeout_s:timeout)

(* A reconnecting client can still need the previous round's Result (it
   resumes from the round it was in), never anything older: broadcasts,
   ack keys and recovery answers of earlier rounds are dropped. Early
   frames queued for a round the collectors have left (its later stages
   never ran: the round aborted) can never be collected. *)
let prune st =
  Hashtbl.filter_map_inplace (fun (r, _) q -> if r >= st.round_now then Some q else None) st.inbox;
  let keep r = r >= st.round_now - 1 in
  while
    match Queue.peek_opt st.bcast_log with Some (r, _, _) -> not (keep r) | None -> false
  do
    ignore (Queue.pop st.bcast_log)
  done;
  Hashtbl.filter_map_inplace (fun (r, _, _, _) () -> if keep r then Some () else None) st.acked;
  Hashtbl.filter_map_inplace (fun (r, _, _) v -> if keep r then Some v else None) st.recover_box

(* the driver's per-stage intake: drain the inbox, convict violators,
   poll the loop for more — under the stage deadline *)
let collect st ~round ~stage ~already ~push =
  let stage_ix = Netsim.stage_index stage in
  st.round_now <- round;
  prune st;
  let banned = Server_sm.malicious (Driver.session_server st.session) in
  (* under an elastic epoch only the round's cohort owes frames: absent
     clients are neither awaited nor timed out *)
  let expected =
    match Option.bind st.cohort_for (fun f -> f round) with
    | Some ep -> Array.to_list ep.Risefl_core.Membership.ep_cohort
    | None -> List.init st.n (fun i -> i + 1)
  in
  if stage = Netsim.Commit then
    st.log (Printf.sprintf "round %d: waiting for %d client(s)" round (List.length expected));
  let pending = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if (not (List.mem i already)) && not (List.mem i banned) then
        Hashtbl.replace pending i ())
    expected;
  let deadline = Clock.now_s () +. st.announced.Proto.deadline_s in
  let accept (sender, seq, framed) =
    (* write-ahead ack: push appends to the WAL (or raises, crashing the
       server) before we acknowledge anything *)
    push (sender, seq, framed);
    Hashtbl.replace st.acked (round, stage_ix, sender, seq) ();
    Hashtbl.remove pending sender;
    match Evloop.conn_of_id st.loop sender with
    | Some c ->
        Evloop.send st.loop c
          (Proto.Ack { round; stage; sender; seq })
    | None -> ()
  in
  let step () =
    (* violators first: their synthetic frame convicts them through the
       driver's normal undecodable-frame path *)
    List.iter
      (fun id ->
        if Hashtbl.mem pending id then begin
          push (id, 0, violation_frame);
          Hashtbl.remove pending id
        end)
      st.pending_convict;
    st.pending_convict <-
      List.filter (fun id -> Hashtbl.mem pending id) st.pending_convict;
    match Hashtbl.find_opt st.inbox (round, stage_ix) with
    | None -> ()
    | Some q ->
        while not (Queue.is_empty q) do
          let (sender, seq, _) as item = Queue.pop q in
          if Hashtbl.mem st.acked (round, stage_ix, sender, seq) then
            Telemetry.Counter.incr c_retransmits
          else accept item
        done
  in
  step ();
  while Hashtbl.length pending > 0 && Clock.now_s () < deadline do
    pump st ~until_s:deadline;
    step ()
  done;
  Hashtbl.remove st.inbox (round, stage_ix);
  let missing = Hashtbl.length pending in
  if missing > 0 then begin
    Telemetry.Counter.add c_timeouts missing;
    st.log
      (Printf.sprintf "round %d %s: deadline passed with %d client(s) silent" round
         (Netsim.stage_to_string stage) missing)
  end;
  st.pos <- (round, stage_ix)

(* A sub-exchange wait can last D on top of the stage's own D, and the
   clients waiting for the stage's broadcast cannot see it: tell them the
   server is still at work, so their 2·D wait restarts here. *)
let keep_alive st = Evloop.broadcast st.loop Proto.Alive

let reveal st ~dealer ~requests =
  Hashtbl.remove st.reveal_box dealer;
  keep_alive st;
  (match Evloop.conn_of_id st.loop dealer with
  | Some c -> Evloop.send st.loop c (Proto.Reveal_req { dealer; requests })
  | None -> ());
  let deadline = Clock.now_s () +. st.announced.Proto.deadline_s in
  while (not (Hashtbl.mem st.reveal_box dealer)) && Clock.now_s () < deadline do
    pump st ~until_s:deadline
  done;
  match Hashtbl.find_opt st.reveal_box dealer with
  | Some shares -> shares
  | None ->
      Telemetry.Counter.incr c_timeouts;
      None

(* the k-regular recovery sub-exchange: ask each alive neighbor of
   [dropout] for its share of the dropout's blind and the pairwise mask,
   under the stage deadline — same pump discipline as [reveal] *)
let recover st ~round ~dropout ~responders =
  List.iter (fun id -> Hashtbl.remove st.recover_box (round, dropout, id)) responders;
  keep_alive st;
  List.iter
    (fun id ->
      match Evloop.conn_of_id st.loop id with
      | Some c -> Evloop.send st.loop c (Proto.Recover_req { round; dropout })
      | None -> ())
    responders;
  let outstanding () =
    List.filter (fun id -> not (Hashtbl.mem st.recover_box (round, dropout, id))) responders
  in
  let deadline = Clock.now_s () +. st.announced.Proto.deadline_s in
  while outstanding () <> [] && Clock.now_s () < deadline do
    pump st ~until_s:deadline
  done;
  (match outstanding () with
  | [] -> ()
  | silent ->
      Telemetry.Counter.add c_timeouts (List.length silent);
      st.log
        (Printf.sprintf "round %d: recovery of client %d: %d responder(s) silent" round dropout
           (List.length silent)));
  List.filter_map
    (fun id ->
      Option.map (fun r -> (id, r)) (Hashtbl.find_opt st.recover_box (round, dropout, id)))
    responders

let view_of_outcome = function
  | Driver.Completed stats ->
      Proto.Rv_completed { cstar = stats.Driver.flagged; aggregate = stats.Driver.aggregate }
  | Driver.Aborted_insufficient_quorum { stage; survivors; needed } ->
      Proto.Rv_aborted_quorum { stage; survivors; needed }
  | Driver.Aborted_decode ids -> Proto.Rv_aborted_decode ids

let remote_of st : Driver.remote =
  {
    Driver.r_collect = (fun ~round ~stage ~already ~push -> collect st ~round ~stage ~already ~push);
    r_commits =
      (fun ~round commits -> send_bcast st ~round All (Proto.Commits { round; commits }));
    r_cleared =
      (fun ~round shares ->
        (* group by flagger: each flagger sees only its own reveals *)
        let flaggers = List.sort_uniq compare (List.map (fun (f, _, _) -> f) shares) in
        List.iter
          (fun f ->
            let own = List.filter (fun (f', _, _) -> f' = f) shares in
            send_bcast st ~round (One f) (Proto.Cleared { round; shares = own }))
          flaggers);
    r_check = (fun ~round bcast -> send_bcast st ~round All (Proto.Check { round; bcast }));
    r_honest =
      (fun ~round ~honest ~malicious ->
        send_bcast st ~round All (Proto.Honest { round; honest; malicious }));
    r_result =
      (fun ~round outcome ->
        send_bcast st ~round All (Proto.Result { round; view = view_of_outcome outcome }));
    r_reveal = (fun ~dealer ~requests -> reveal st ~dealer ~requests);
    r_recover =
      (fun ~round ~dropout ~responders -> recover st ~round ~dropout ~responders);
  }

(* Planned crash: the WAL is already synced (the driver fsyncs before
   raising); push queued acks/broadcasts out briefly, print the resume
   hint, then deliver genuine kill -9 semantics to our own process. *)
let die_crashed st wal stage at =
  let wal_path = match wal with Some w -> Round_log.path w | None -> "?" in
  Evloop.drain st.loop ~deadline_s:(Clock.now_s () +. 0.5);
  Printf.printf "server crashed at %s (wal synced); finish the round with: serve --wal %s\n"
    (Driver.crash_to_string (stage, at))
    wal_path;
  flush stdout;
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  assert false

let serve ?(log = fun _ -> ()) cfg =
  (* a peer vanishing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let n = cfg.setup.Setup.params.Params.n_clients in
  let announced =
    {
      Proto.deadline_s = cfg.stage_deadline_s;
      rounds = cfg.rounds;
      degree = (match cfg.topology with Topology.Full -> 0 | Topology.Kregular k -> k);
      churn = cfg.churn;
    }
  in
  (* the clients could not decode an announcement the server could not
     make: refuse it before listening *)
  Option.iter (fun e -> invalid_arg ("Server.serve: " ^ e)) (Proto.session_error announced);
  let session = Driver.create_session cfg.setup ~seed:cfg.seed in
  (* the log is the driver's to resume; the transport keeps only what it
     owns: logged frames are re-acked instead of reprocessed *)
  let records, wal =
    match cfg.wal_path with
    | None -> ([], None)
    | Some path ->
        let records = if Sys.file_exists path then fst (Round_log.replay path) else [] in
        (records, Some (Round_log.create path))
  in
  let loop = Evloop.listen cfg.addr in
  let st =
    {
      loop;
      n;
      session;
      announced;
      log;
      acked = Hashtbl.create 64;
      bcast_log = Queue.create ();
      inbox = Hashtbl.create 8;
      reveal_box = Hashtbl.create 4;
      recover_box = Hashtbl.create 4;
      cohort_for =
        Option.map
          (fun spec -> Driver.churn_cohort_for session ~spec ~rounds:cfg.rounds)
          cfg.churn;
      pending_convict = [];
      pos = (0, -1);
      round_now = Round_log.resume_point records;
    }
  in
  List.iter
    (function
      | Round_log.Frame { round; stage; sender; seq; _ } ->
          Hashtbl.replace st.acked (round, Netsim.stage_index stage, sender, seq) ()
      | _ -> ())
    records;
  let close () =
    Evloop.shutdown loop;
    Option.iter Round_log.close wal
  in
  let report =
    (* remote rounds never compute client work: dummies gate nothing *)
    match
      Driver.run_session ~remote:(remote_of st) ?wal ?crash:cfg.crash ?stream:cfg.stream
        ?cohort_for:st.cohort_for ~topology:cfg.topology session
        ~updates_for:(fun _ -> Array.make n [||])
        ~behaviours:(Driver.honest_all n) ~rounds:cfg.rounds
    with
    | report -> report
    | exception Driver.Server_crashed { stage; at } -> die_crashed st wal stage at
    | exception e ->
        close ();
        raise e
  in
  (* let the final Result broadcasts reach the clients before closing *)
  Evloop.drain loop ~deadline_s:(Clock.now_s () +. 1.0);
  close ();
  (report, Server_sm.stream_stats (Driver.session_server session))
