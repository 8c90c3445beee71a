(* The traced run's twin of a Driver session: the same clients, server,
   transport, WAL and membership, built from the same seed, driven one
   protocol stage at a time through the layers' public functions so that
   every call can be timed from outside. Each round must reproduce the
   Driver's aggregate and C* bit for bit. *)

open Risefl_core
module Topology = Risefl_topology.Topology

type t = {
  w : Workload.t;
  seed : string;
  clients : Client.t array;
  server : Server.t;
  behaviours : Driver.behaviour array;
  reliable : Reliable.t option;
  wal : Round_log.t option;
  membership : (Membership.t * Membership.event list array) option;
  mutable peak_live_words : int;
  mutable last_commit_frame : Bytes.t;
}

let span = Trace.with_

(* mirrors Driver.create_session's derivation: one root DRBG, a fork per
   client and one for the server *)
let create w setup ~seed ~behaviours ~reliable ~wal =
  let n = w.Workload.n in
  let root = Prng.Drbg.create_string seed in
  let clients =
    Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (Printf.sprintf "c%d" i)))
  in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  let membership =
    if w.Workload.crowd then
      Some
        ( Membership.create pks,
          Membership.schedule ~seed (Workload.churn_spec w) ~n ~rounds:Workload.max_rounds )
    else None
  in
  {
    w;
    seed;
    clients;
    server;
    behaviours;
    reliable;
    wal;
    membership;
    peak_live_words = 0;
    last_commit_frame = Bytes.empty;
  }

(* a stage boundary's live-heap watermark; [Gc.stat] walks the heap, so
   it is booked as tracing work, not as a layer's *)
let observe_live t =
  span ~layer:"trace" "trace.observe" (fun () ->
      t.peak_live_words <- max t.peak_live_words (Telemetry.live_words ()))

let wal_append t r =
  match t.wal with
  | None -> ()
  | Some w -> span ~layer:"core.Round_log" "wal.append" (fun () -> Round_log.append w r)

let corrupt_sealed (s : Channel.sealed) =
  let body = Bytes.copy s.Channel.body in
  if Bytes.length body > 0 then Bytes.set body 0 (Char.chr (Char.code (Bytes.get body 0) lxor 0xff));
  { s with Channel.body }

(* the epoch for [round], advanced exactly as Driver.churn_cohort_for
   does (rotation proofs signed by this twin's own clients) *)
let next_epoch t ~round =
  match t.membership with
  | None -> None
  | Some (mem, sched) ->
      span ~layer:"core.Membership" "membership.epoch" (fun () ->
          let ep =
            Membership.advance mem ~round ~events:sched.(round - 1) ~rotation_for:(fun ~id ~gen:_ ->
                Some (Client.rotation_proof t.clients.(id - 1)))
          in
          List.iter
            (function
              | Membership.D_rotated i -> Client.rotate_to t.clients.(i - 1) ~gen:ep.Membership.ep_gens.(i - 1)
              | _ -> ())
            ep.Membership.ep_deltas;
          (* Driver.apply_epoch: catch up key generations, install the
             post-rotation directory everywhere *)
          Array.iteri
            (fun i g -> if g > Client.key_generation t.clients.(i) then Client.rotate_to t.clients.(i) ~gen:g)
            ep.Membership.ep_gens;
          Array.iter (fun c -> Client.install_directory c ep.Membership.ep_pks) t.clients;
          Server.install_directory t.server ep.Membership.ep_pks;
          Some ep)

(* One client -> server exchange over the wire: encode every payload,
   carry the frames (ARQ over the socket loopback, or straight through),
   then the server's intake — WAL append before processing, dedup by
   (sender, seq) under ARQ, decode, first frame per sender wins. *)
let exchange t ~round ~stage ~encode ~decode ~sender_of ~consume msgs =
  let n = t.w.Workload.n in
  let outgoing = Array.map (Option.map (fun m -> span ~layer:"core.Serial" "serial.encode" (fun () -> encode m))) msgs in
  (* a real commit frame, kept for the WAL and transport probes *)
  (if stage = Netsim.Commit then
     match Array.to_list outgoing |> List.find_map Fun.id with Some f -> t.last_commit_frame <- f | None -> ());
  let fresh =
    match t.reliable with
    | Some rel -> span ~layer:"transport" "transport.deliver" (fun () -> Reliable.exchange rel ~round ~stage outgoing)
    | None ->
        List.filter_map Fun.id (Array.to_list (Array.mapi (fun i p -> Option.map (fun f -> (i + 1, 0, f)) p) outgoing))
  in
  let delivered = Array.make n None in
  let taken = Array.make n false and poisoned = Array.make n false in
  let offenders = ref [] in
  let dedup = Option.is_some t.reliable in
  let seen = Hashtbl.create 7 in
  List.iter
    (fun (sender, seq, frame) ->
      if sender >= 1 && sender <= n then begin
        wal_append t (Round_log.Frame { round; stage; sender; seq; frame });
        if ((not dedup) || not (Hashtbl.mem seen (sender, seq))) && not poisoned.(sender - 1) then begin
          Hashtbl.replace seen (sender, seq) ();
          match span ~layer:"core.Serial" "serial.decode" (fun () -> decode frame) with
          | Ok m when sender_of m = sender ->
              if not taken.(sender - 1) then begin
                taken.(sender - 1) <- true;
                match consume with Some f -> f ~sender m | None -> delivered.(sender - 1) <- Some m
              end
          | Ok _ | Error _ ->
              poisoned.(sender - 1) <- true;
              delivered.(sender - 1) <- None;
              offenders := sender :: !offenders
        end
      end)
    fresh;
  wal_append t (Round_log.Stage_done { round; stage });
  (delivered, List.sort_uniq compare !offenders)

type result = { aggregate : int array option; cstar : int list; cohort : int array; topo : Topology.t option }

(* One protocol round, stage by stage, in the Driver's order of calls
   (the per-client and server DRBG streams must advance identically). *)
let round t ~updates ~round =
  Trace.round := round;
  span ~layer:"driver" "round" @@ fun () ->
  let w = t.w and clients = t.clients and server = t.server in
  let n = w.Workload.n and behaviours = t.behaviours in
  let epoch = next_epoch t ~round in
  let cohort = match epoch with Some ep -> ep.Membership.ep_cohort | None -> Array.init n (fun i -> i + 1) in
  let cohort_opt = if Array.length cohort = n then None else Some cohort in
  let in_cohort = Array.init n (fun i -> Array.mem (i + 1) cohort) in
  let topo =
    span ~layer:"topology" "topology.plan" (fun () ->
        Topology.plan ~mode:(Workload.topology w) ~seed:t.seed ~round ~cohort)
  in
  let is_active i = in_cohort.(i) && behaviours.(i) <> Driver.Drop_out in
  let note = List.iter (fun i -> Server.mark_decode_failure server i) in
  (match epoch with Some ep -> wal_append t (Round_log.Epoch ep) | None -> ());
  wal_append t (Round_log.Round_start { round });
  if Option.is_some t.wal then begin
    let snap = span ~layer:"core.Server" "server.snapshot" (fun () -> Server.snapshot server) in
    wal_append t (Round_log.Snapshot snap)
  end;
  (* commit *)
  let commit_msgs =
    Array.init n (fun i ->
        if not (is_active i) then None
        else
          let msg =
            span ~layer:"core.Client" "client.commit" (fun () ->
                Client.commit_round ?topo ?cohort:cohort_opt clients.(i) ~round ~update:updates.(i))
          in
          match behaviours.(i) with
          | Driver.Bad_share_to targets ->
              let recips =
                match topo with None -> Array.init n (fun j -> j + 1) | Some tp -> Topology.neighbors tp (i + 1)
              in
              Some
                {
                  msg with
                  Wire.enc_shares =
                    Array.mapi (fun j s -> if List.mem recips.(j) targets then corrupt_sealed s else s) msg.Wire.enc_shares;
                }
          | _ -> Some msg)
  in
  let commits, off =
    exchange t ~round ~stage:Netsim.Commit ~encode:Serial.encode_commit_msg ~decode:Serial.decode_commit
      ~sender_of:(fun (m : Wire.commit_msg) -> m.Wire.sender) ~consume:None commit_msgs
  in
  let present_commits =
    span ~layer:"core.Server" "server.begin" (fun () ->
        Server.begin_round ?topo ?cohort:cohort_opt server ~round ~commits;
        Array.of_list (List.filter_map Fun.id (Array.to_list (Server.round_commits server))))
  in
  note off;
  (match epoch with
  | Some ep -> List.iter (fun i -> Server.convict server i ~reason:"rotation proof rejected") ep.Membership.ep_convicts
  | None -> ());
  observe_live t;
  (* flags *)
  let flag_msgs =
    Array.init n (fun i ->
        if not (is_active i) then None
        else
          let base =
            span ~layer:"core.Client" "client.share_verify" (fun () ->
                Client.receive_shares ?topo ?cohort:cohort_opt clients.(i) ~round ~msgs:present_commits)
          in
          match behaviours.(i) with
          | Driver.False_flags extra ->
              Some { base with Wire.suspects = List.sort_uniq compare (extra @ base.Wire.suspects) }
          | _ -> Some base)
  in
  let flags, off =
    exchange t ~round ~stage:Netsim.Flag ~encode:Serial.encode_flag_msg ~decode:Serial.decode_flag
      ~sender_of:(fun (m : Wire.flag_msg) -> m.Wire.sender) ~consume:None flag_msgs
  in
  note off;
  let reveal dealer requests =
    if not (is_active (dealer - 1)) then None
    else
      span ~layer:"core.Client" "client.reveal" (fun () ->
          match Client.reveal_shares clients.(dealer - 1) ~requests with
          | shares -> Some shares
          | exception Client.Server_misbehaving _ -> None)
  in
  let cleared = span ~layer:"core.Server" "server.flags" (fun () -> Server.process_flags server ~flags ~reveal) in
  List.iter
    (fun (flagger, dealer, value) ->
      if is_active (flagger - 1) then
        span ~layer:"core.Client" "client.reveal" (fun () ->
            Client.accept_cleared_share clients.(flagger - 1) ~from:dealer ~value))
    cleared;
  observe_live t;
  (* check preparation and its broadcast *)
  let s_value, hs = span ~layer:"core.Server" "server.prep" (fun () -> Server.prepare_check server) in
  wal_append t (Round_log.Check { round; s = s_value });
  let bcast = span ~layer:"core.Serial" "serial.encode" (fun () -> Serial.encode_broadcast ~s:s_value ~hs) in
  let s_value, hs =
    match span ~layer:"core.Serial" "serial.decode" (fun () -> Serial.decode_broadcast_r bcast) with
    | Ok v -> v
    | Error e -> failwith ("broadcast round-trip failed: " ^ Serial.error_to_string e)
  in
  let hs_tables = span ~layer:"core.Server" "server.tables" (fun () -> Array.map Curve25519.Point.Table.make hs) in
  (* proofs *)
  let stream_st =
    Option.map
      (fun cfg -> span ~layer:"core.Server" "server.verify" (fun () -> Server.stream_begin ~jobs:1 server ~round ~cfg))
      (Workload.stream_cfg w)
  in
  let consume =
    Option.map
      (fun st ~sender m -> span ~layer:"core.Server" "server.verify" (fun () -> Server.stream_feed st ~sender m))
      stream_st
  in
  let proof_msgs =
    Array.init n (fun i ->
        if not (is_active i) then None
        else
          span ~layer:"core.Client" "client.proof" (fun () ->
              Client.try_proof_round ~hs_tables ?cohort:cohort_opt clients.(i) ~round ~s:s_value ~hs))
  in
  let proofs, off =
    exchange t ~round ~stage:Netsim.Proof ~encode:Serial.encode_proof_msg ~decode:Serial.decode_proof
      ~sender_of:(fun (m : Wire.proof_msg) -> m.Wire.sender) ~consume proof_msgs
  in
  note off;
  span ~layer:"core.Server" "server.verify" (fun () ->
      match stream_st with
      | Some st -> Server.stream_finish st
      | None -> Server.verify_proofs ~jobs:1 server ~round ~proofs);
  observe_live t;
  (* aggregation *)
  let honest = Server.honest server in
  let agg_msgs =
    Array.init n (fun i ->
        if (not (is_active i)) || behaviours.(i) = Driver.Agg_silent || List.mem (i + 1) (Server.malicious server)
        then None
        else
          span ~layer:"core.Client" "client.agg" (fun () ->
              match
                match topo with
                | None -> Client.agg_round clients.(i) ~honest
                | Some tp -> Client.agg_round_masked clients.(i) ~round ~topo:tp ~honest
              with
              | msg -> Some msg
              | exception Invalid_argument _ -> None))
  in
  let agg_msgs, off =
    exchange t ~round ~stage:Netsim.Agg ~encode:Serial.encode_agg_msg ~decode:Serial.decode_agg
      ~sender_of:(fun (m : Wire.agg_msg) -> m.Wire.sender) ~consume:None agg_msgs
  in
  note off;
  let agg =
    span ~layer:"core.Server" "server.agg" (fun () ->
        match topo with
        | None -> Server.aggregate server ~agg_msgs
        | Some tp ->
            let recover ~dropout ~responders =
              List.filter_map
                (fun i ->
                  if not (is_active (i - 1)) then None
                  else
                    span ~layer:"core.Client" "client.recovery" (fun () ->
                        match Client.recovery_response clients.(i - 1) ~round ~topo:tp ~dropout with
                        | resp -> Some (i, resp)
                        | exception Client.Server_misbehaving _ -> None))
                responders
            in
            Server.aggregate_kregular server ~topo:tp ~honest ~recover ~agg_msgs)
  in
  let aggregate = match agg with Ok v -> Some v | Error _ -> None in
  let cstar = Server.malicious server in
  wal_append t (Round_log.Round_end { round; cstar; aggregate });
  observe_live t;
  (* the session loop carries C* into the next round *)
  List.iter (Server.ban server) cstar;
  { aggregate; cstar; cohort; topo }
