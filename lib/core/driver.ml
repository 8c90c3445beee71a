module Scalar = Curve25519.Scalar
module Topology = Risefl_topology.Topology

type behaviour =
  | Honest
  | Oversized of float
  | Bad_share_to of int list
  | False_flags of int list
  | Bad_agg_share
  | Drop_out
  | Agg_silent

type stats = {
  aggregate : int array option;
  failure : Server.agg_error option;
  flagged : int list;
  decode_failures : int list;
  client_commit_s : float;
  client_share_verify_s : float;
  client_proof_s : float;
  server_prep_s : float;
  server_verify_s : float;
  server_agg_s : float;
  client_up_bytes : int;
  client_down_bytes : int;
}

type round_outcome =
  | Completed of stats
  | Aborted_insufficient_quorum of { stage : string; survivors : int; needed : int }
  | Aborted_decode of int list

let outcome_to_string = function
  | Completed _ -> "completed"
  | Aborted_insufficient_quorum { stage; survivors; needed } ->
      Printf.sprintf "aborted at %s stage: %d survivors < quorum %d" stage survivors needed
  | Aborted_decode ids ->
      Printf.sprintf "aborted: quorum lost to undecodable frames from [%s]"
        (String.concat ";" (List.map string_of_int ids))

let honest_all n = Array.make n Honest

(* one timing authority for the repo: monotonic, defined in Telemetry *)
let time f = Telemetry.Clock.time f

let corrupt_sealed (s : Channel.sealed) =
  let body = Bytes.copy s.Channel.body in
  if Bytes.length body > 0 then
    Bytes.set body 0 (Char.chr (Char.code (Bytes.get body 0) lxor 0xff));
  { s with Channel.body = body }

type session = {
  setup : Setup.t;
  seed : string;
  clients : Client.t array;
  mutable server : Server.t;
  (* the first round this process's own clients have not finished: an
     in-process session can only resume a log where its clients stopped *)
  mutable clients_at : int;
  (* post-behaviour encoded frames per (round, stage), cached under the
     durable runtime. Client-side randomness is one sequential stream per
     client, so a stage's messages must be produced exactly once per
     process: in-process recovery replays these bytes instead of re-running
     the clients (which would advance their DRBGs and break bit-identity).
     Only the round in flight is ever replayed: opening a round drops the
     earlier rounds' entries *)
  outbox : (int * Netsim.stage, Bytes.t option array) Hashtbl.t;
}

let create_session setup ~seed =
  let n = setup.Setup.params.Params.n_clients in
  let root = Prng.Drbg.create_string seed in
  let clients =
    Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (Printf.sprintf "c%d" i)))
  in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  { setup; seed; clients; server; clients_at = 1; outbox = Hashtbl.create 31 }

let session_server t = t.server
let session_clients t = t.clients

(* --- crash plan --- *)

type crash_point = Stage_start | Stage_frame of int | Stage_end

exception Server_crashed of { stage : Netsim.stage; at : crash_point }

let crash_point_to_string = function
  | Stage_start -> "start"
  | Stage_end -> "end"
  | Stage_frame i -> string_of_int i

let crash_to_string (stage, at) =
  Netsim.stage_to_string stage ^ ":" ^ crash_point_to_string at

let crash_of_string spec =
  match String.index_opt spec ':' with
  | None -> Error "expected STAGE:STEP (e.g. proof:start, agg:2)"
  | Some c -> (
      let sname = String.sub spec 0 c in
      let pname = String.sub spec (c + 1) (String.length spec - c - 1) in
      let stage =
        match String.lowercase_ascii sname with
        | "commit" -> Some Netsim.Commit
        | "flag" -> Some Netsim.Flag
        | "proof" -> Some Netsim.Proof
        | "agg" -> Some Netsim.Agg
        | _ -> None
      in
      match stage with
      | None -> Error ("unknown stage: " ^ sname)
      | Some stage -> (
          match String.lowercase_ascii pname with
          | "start" -> Ok (stage, Stage_start)
          | "end" -> Ok (stage, Stage_end)
          | _ -> (
              match int_of_string_opt pname with
              | Some i when i >= 0 -> Ok (stage, Stage_frame i)
              | _ -> Error ("bad step: " ^ pname))))

(* a seeded crash plan, scheduled like Netsim faults: each index draws its
   (stage, step) from an independent fork, so a sweep is a pure function
   of the seed *)
let seeded_crashes ~seed ~n ~max_step =
  let root = Prng.Drbg.create_string ("crash/" ^ seed) in
  List.init n (fun i ->
      let drbg = Prng.Drbg.fork root (Printf.sprintf "p%d" i) in
      let stage =
        match Prng.Drbg.uniform_int drbg 4 with
        | 0 -> Netsim.Commit
        | 1 -> Netsim.Flag
        | 2 -> Netsim.Proof
        | _ -> Netsim.Agg
      in
      (stage, Stage_frame (Prng.Drbg.uniform_int drbg (max 1 max_step))))

(* --- recovery context: the current round's WAL records, indexed --- *)

type recovery = {
  rec_frames : (Netsim.stage, (int * int * Bytes.t) list) Hashtbl.t;
  rec_done : (Netsim.stage, unit) Hashtbl.t;
  rec_s : Bytes.t option;
}

let recovery_of_records ~round records =
  let ctx = { rec_frames = Hashtbl.create 7; rec_done = Hashtbl.create 7; rec_s = None } in
  let rec_s = ref None in
  List.iter
    (fun r ->
      match r with
      | Round_log.Frame { round = r'; stage; sender; seq; frame } when r' = round ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.rec_frames stage) in
          Hashtbl.replace ctx.rec_frames stage (prev @ [ (sender, seq, frame) ])
      | Round_log.Stage_done { round = r'; stage } when r' = round ->
          Hashtbl.replace ctx.rec_done stage ()
      | Round_log.Check { round = r'; s } when r' = round -> rec_s := Some s
      | _ -> ())
    records;
  { ctx with rec_s = !rec_s }

(* --- remote seam: the hooks a socket transport plugs into the round --- *)

(* With [remote], the driver is the *server half only*: client messages
   are not computed in-process — [r_collect] pulls them off the wire and
   pushes each accepted frame through the driver's write-ahead intake
   (WAL append + fsync happen inside [push], so the transport may ack a
   frame only after [push] returns). The [r_*] broadcast hooks fire at
   the exact points the in-process run hands data to its local clients,
   letting the transport fan the same bytes out to real peers. *)
type remote = {
  r_collect :
    round:int ->
    stage:Netsim.stage ->
    already:int list ->
    push:(int * int * Bytes.t -> unit) ->
    unit;
      (* gather this stage's client frames; [already] lists senders whose
         frames were WAL-replayed (ack, don't re-collect); call [push
         (sender, seq, frame)] per accepted frame — it may raise
         {!Server_crashed}, in which case the frame is neither logged nor
         acked *)
  r_commits : round:int -> Bytes.t array -> unit;
      (* the server's validated commit view, encoded, broadcast to all *)
  r_cleared : round:int -> (int * int * Scalar.t) list -> unit;
      (* (flagger, dealer, share) cleared-share deliveries *)
  r_check : round:int -> Bytes.t -> unit;
      (* the encoded (s, h_1..h_k) integrity-check broadcast *)
  r_honest : round:int -> honest:int list -> malicious:int list -> unit;
      (* the pre-aggregation membership broadcast *)
  r_result : round:int -> round_outcome -> unit;
      (* the round verdict; never fired on a server crash *)
  r_reveal : dealer:int -> requests:int list -> (int * Scalar.t) list option;
      (* synchronous share-reveal sub-exchange with a remote dealer *)
  r_recover :
    round:int -> dropout:int -> responders:int list -> (int * (Scalar.t option * Scalar.t)) list;
      (* k-regular dropout recovery: ask each responder (an alive graph
         neighbor of [dropout]) for its share of the dropout's blind and
         the pairwise mask; (responder, (share, mask)) per answer *)
}

(* internal: the quorum lifecycle's one early exit; caught in [run],
   never escapes *)
exception Abort of round_outcome

module TI = Netsim.Transport_intf

(* stage-boundary memory watermark: [Gc.stat] walks the heap, so it is
   sampled only when telemetry is on, and only between stages *)
let g_live = Telemetry.Gauge.make "mem.live_words.peak"

let observe_live () =
  if Telemetry.enabled () then Telemetry.Gauge.observe g_live (Telemetry.live_words ())

(* audit trail for the elastic layer: bumped whenever a shrunken cohort
   forces the round's k-regular degree below the requested one *)
let c_degree_clamped = Telemetry.Counter.make "topology.degree_clamped"

exception Epoch_mismatch of string
(* a decoded-valid epoch that contradicts the session — wrong universe
   size, a directory entry no client key derivation reaches: recovery
   must fail loudly rather than run the round under a wrong cohort *)

(* Bring the session up to the epoch's directory: rotate each client to
   its epoch generation (generation keys are key-only DRBG forks, so any
   process reaches them at any time), check the derived public keys
   against the epoch's directory, and install it everywhere. Idempotent —
   recovery re-applies the epoch it crashed under. *)
let apply_epoch session ep =
  let n = Array.length session.clients in
  if Array.length ep.Membership.ep_pks <> n || Array.length ep.Membership.ep_gens <> n then
    raise (Epoch_mismatch "epoch directory size does not match the session universe");
  Array.iteri
    (fun i g ->
      if g > Client.key_generation session.clients.(i) then
        Client.rotate_to session.clients.(i) ~gen:g)
    ep.Membership.ep_gens;
  Array.iteri
    (fun i pk ->
      if not (Curve25519.Point.equal (Client.public_key session.clients.(i)) pk) then
        raise
          (Epoch_mismatch
             (Printf.sprintf "epoch directory entry for client %d does not match its derived key"
                (i + 1))))
    ep.Membership.ep_pks;
  Array.iter (fun c -> Client.install_directory c ep.Membership.ep_pks) session.clients;
  Server.install_directory session.server ep.Membership.ep_pks

(* A shrunken cohort can undercut the requested k-regular degree:
   re-derive the recommendation for the cohort that actually showed up
   (letting [Topology.plan] normalize an all-to-all recommendation) and
   leave an audit counter behind. Shared by the in-process driver and
   the socket client so both sides derive the same graph. *)
let effective_topology setup ~cohort mode =
  let p = setup.Setup.params in
  let n = p.Params.n_clients in
  match mode with
  | Topology.Kregular k
    when Array.length cohort >= 4 && Array.length cohort < n && k >= Array.length cohort - 1 ->
      let nc = Array.length cohort in
      let gamma = float_of_int p.Params.max_malicious /. float_of_int n in
      let k' =
        min (Topology.recommend_degree ~n:nc ~dropout:0.05 ~corruption:gamma ~sigma:40) (nc - 1)
      in
      Telemetry.Counter.incr c_degree_clamped;
      Topology.Kregular (max 2 k')
  | t -> t

(* --- the client engine: one view per round, one step per client action --- *)

type round_view = {
  round : int;
  cohort : int array option;
  in_cohort : bool array;
  topo : Topology.t option;
}

(* an epoch freezes the cohort and the post-rotation directory before any
   frame moves; a full cohort selects every legacy branch ([cohort =
   None]), bit-identical to the fixed set. The graph is a pure function of
   (seed, round, cohort), never logged: recovery and a remote client
   re-derive it, and [plan] normalizes the all-to-all cases to None. *)
let round_view ?epoch ?(topology = Topology.Full) session ~round =
  let n = Array.length session.clients in
  Option.iter (apply_epoch session) epoch;
  let cohort =
    match epoch with Some ep -> ep.Membership.ep_cohort | None -> Array.init n (fun i -> i + 1)
  in
  let in_cohort = Array.make n false in
  Array.iter (fun id -> if id >= 1 && id <= n then in_cohort.(id - 1) <- true) cohort;
  let mode = effective_topology session.setup ~cohort topology in
  {
    round;
    cohort = (if Array.length cohort = n then None else Some cohort);
    in_cohort;
    topo = Topology.plan ~mode ~seed:session.seed ~round ~cohort;
  }

let active v b c = v.in_cohort.(Client.id c - 1) && b <> Drop_out

(* every step sends nothing for a client outside the cohort or dropped
   out, and nothing once the client catches the server misbehaving *)
let guarded v b c f =
  if not (active v b c) then None else try f () with Client.Server_misbehaving _ -> None

let commit_step v b c ~update =
  guarded v b c @@ fun () ->
  (* an Oversized client's update is already the scaled malicious vector *)
  let commit =
    match b with Oversized _ -> Client.commit_round_unchecked | _ -> Client.commit_round
  in
  let msg = commit ?topo:v.topo ?cohort:v.cohort c ~round:v.round ~update in
  match b with
  | Bad_share_to targets ->
      (* positions are recipient ids only on the all-to-all path; under a
         topology they are ranks in the sorted neighbor list (a
         non-neighbor target is a no-op) *)
      let recips =
        match v.topo with
        | None -> Array.init (Array.length v.in_cohort) (fun j -> j + 1)
        | Some tp -> Topology.neighbors tp (Client.id c)
      in
      let enc_shares =
        Array.mapi
          (fun j s -> if List.mem recips.(j) targets then corrupt_sealed s else s)
          msg.Wire.enc_shares
      in
      Some { msg with Wire.enc_shares }
  | _ -> Some msg

let flag_step v b c ~commits =
  guarded v b c @@ fun () ->
  let base = Client.receive_shares ?topo:v.topo ?cohort:v.cohort c ~round:v.round ~msgs:commits in
  match b with
  | False_flags extra ->
      Some { base with Wire.suspects = List.sort_uniq compare (extra @ base.Wire.suspects) }
  | _ -> Some base

let proof_step ?predicate ?hs_tables v b c ~s ~hs =
  guarded v b c @@ fun () ->
  Client.try_proof_round ?predicate ?hs_tables ?cohort:v.cohort c ~round:v.round ~s ~hs

let agg_step v b c ~honest ~malicious =
  guarded v b c @@ fun () ->
  if b = Agg_silent || List.mem (Client.id c) malicious then None
  else
    match
      match v.topo with
      | None -> Client.agg_round c ~honest
      | Some topo -> Client.agg_round_masked c ~round:v.round ~topo ~honest
    with
    | msg when b = Bad_agg_share ->
        (* a garbage aggregated share: SS.Verify against the combined check
           string must reject it (k-regular: the global g^R check catches
           it instead) *)
        Some { msg with Wire.r_sum = Scalar.add msg.Wire.r_sum Scalar.one }
    | msg -> Some msg
    | exception Invalid_argument _ -> None

let reveal_step v b c ~requests = guarded v b c @@ fun () -> Some (Client.reveal_shares c ~requests)

(* answers are pure functions of client state (no DRBG draws), so WAL
   replay reproduces them bit-identically; all-to-all rounds have no
   neighborhood recovery *)
let recovery_step v b c ~dropout =
  guarded v b c @@ fun () ->
  Option.map (fun topo -> Client.recovery_response c ~round:v.round ~topo ~dropout) v.topo

(* --- the round engine: one private record, one function per stage --- *)

(* one round in flight: its inputs, links and view, fixed when the round
   opens, plus the accounting the stages fill in *)
type rd = {
  s : session;
  v : round_view;
  n : int;
  needed : int;
  updates : int array array;
  behaviours : behaviour array;
  serialize : bool;
  endpoint : TI.endpoint option;
  reliable : Reliable.t option;
  remote : remote option;
  wal : Round_log.t option;
  crash : (Netsim.stage * crash_point) option;
  recovery : recovery option;
  epoch : Membership.epoch option;
  acct : int;  (* the first honest in-cohort client's index, or -1 *)
  n_honest : int;
  mutable decode_failures : int list;
  mutable up : int;  (* the accounting client's uploads so far *)
  mutable down : int;  (* ... and its share/check-string downloads *)
}

let open_round ?(serialize = false) ?endpoint ?reliable ?remote ?wal ?crash ?recovery ?epoch
    ?topology session ~updates ~behaviours ~round =
  let p = session.setup.Setup.params in
  let n = p.Params.n_clients in
  if Array.length updates <> n || Array.length behaviours <> n then
    invalid_arg "Driver.run_round_outcome: need one update and one behaviour per client";
  let v = round_view ?epoch ?topology session ~round in
  let honest =
    List.filter (fun i -> behaviours.(i) = Honest && v.in_cohort.(i)) (List.init n Fun.id)
  in
  Hashtbl.filter_map_inplace (fun (r, _) b -> if r < round then None else Some b) session.outbox;
  {
    s = session;
    v;
    n;
    needed = Params.shamir_t p;
    updates;
    behaviours;
    (* a link, a write-ahead log or a replay implies the wire: bytes are
       the only thing they can fault, retransmit or log *)
    serialize =
      serialize || Option.is_some endpoint || Option.is_some reliable || Option.is_some remote
      || Option.is_some wal || Option.is_some recovery;
    endpoint;
    reliable;
    remote;
    wal;
    crash;
    recovery;
    epoch;
    acct = (match honest with i :: _ -> i | [] -> -1);
    n_honest = List.length honest;
    decode_failures = [];
    up = 0;
    down = 0;
  }

(* (round, stage, role)-attributed spans for the trace; no-ops unless
   telemetry is enabled *)
let span rd stage role f =
  Telemetry.Span.with_
    ~attrs:[ ("round", string_of_int rd.v.round); ("stage", stage); ("role", role) ]
    (stage ^ "." ^ role) f

let wal_append rd r = Option.iter (fun w -> Round_log.append w r) rd.wal

let crash_check rd stage at =
  if rd.crash = Some (stage, at) then begin
    Option.iter Round_log.sync rd.wal;
    raise (Server_crashed { stage; at })
  end

let check_redrawn ~logged s =
  if not (Bytes.equal logged s) then
    failwith "Driver: recovery check-string mismatch (wrong seed or corrupt WAL?)"

(* client i's step [f] over the round's view, its own behaviour and its
   own state machine *)
let step rd f i = f rd.v rd.behaviours.(i) rd.s.clients.(i)

(* each client's stage message from its step [f i]; the honest in-cohort
   clients' wall time is summed into [total] *)
let timed rd total f =
  Array.init rd.n (fun i ->
      let m, dt = time (fun () -> step rd (f i) i) in
      if rd.behaviours.(i) = Honest && rd.v.in_cohort.(i) then total := !total +. dt;
      m)

(* One client → server exchange; every frame the server accepts goes to
   [consume]. Without the wire this hands over the computed messages
   directly. On the wire, every frame crosses the round's link (fault
   plan, retransmission with receive-side dedup by (round, stage, sender,
   seq), or a remote collector) and the server keeps whatever decodes by
   the deadline. First frame per sender wins; an undecodable frame
   poisons its sender for the stage (a later clean duplicate does not
   restore it) and the sender is returned as an offender. Under a
   write-ahead log every accepted frame is appended (and fsynced) before
   the server processes it; under recovery, the logged frames replay
   first and only the unlogged senders re-enter delivery. *)
let exchange rd ~stage ~encode ~decode ~sender_of ~compute ~consume =
  let n = rd.n and round = rd.v.round in
  if not rd.serialize then begin
    Array.iteri (fun i m -> Option.iter (consume ~sender:(i + 1)) m) (compute ());
    []
  end
  else begin
    (* 1. this process's outgoing payloads, computed exactly once per
       (round, stage) when durable: client randomness is one sequential
       stream per client, so in-process recovery replays these bytes
       instead of re-running the clients. A remote round computes
       nothing locally — the clients live in other processes. *)
    let durable = Option.is_some rd.wal || Option.is_some rd.recovery in
    let outgoing =
      if Option.is_some rd.remote then Array.make n None
      else
        match if durable then Hashtbl.find_opt rd.s.outbox (round, stage) else None with
        | Some cached -> cached
        | None ->
            let bytes = Array.map (Option.map encode) (compute ()) in
            if durable then Hashtbl.replace rd.s.outbox (round, stage) bytes;
            bytes
    in
    (* 2. frames already accepted (and logged) before the crash *)
    let logged, stage_done =
      match rd.recovery with
      | None -> ([], false)
      | Some ctx ->
          ( Option.value ~default:[] (Hashtbl.find_opt ctx.rec_frames stage),
            Hashtbl.mem ctx.rec_done stage )
    in
    let already = List.map (fun (s, _, _) -> s) logged in
    (* 3. fresh deliveries for everyone else (remote rounds collect
       push-side below instead, after the write-ahead intake is armed) *)
    let pending =
      List.filter_map
        (fun i ->
          match outgoing.(i) with
          | Some frame when not (List.mem (i + 1) already) -> Some (i + 1, frame)
          | _ -> None)
        (List.init n Fun.id)
    in
    let fresh =
      if stage_done || Option.is_some rd.remote then []
      else
        match (rd.reliable, rd.endpoint) with
        | Some rel, _ -> Reliable.exchange rel ~round ~stage ~already outgoing
        | None, Some ep ->
            ep.TI.ep_begin_stage ~round ~stage;
            List.iter (fun (sender, frame) -> ep.TI.ep_send ~attempt:0 ~sender frame) pending;
            List.map (fun (s, f) -> (s, 0, f)) (ep.TI.ep_deliver ~deadline:None)
        | None, None -> List.map (fun (s, f) -> (s, 0, f)) pending
    in
    (* 4. server intake: WAL append (write-ahead), dedup, decode. Only the
       reliable layer (and the socket transport, which carries its
       headers) stamps meaningful sequence numbers; those frames
       de-duplicate by (sender, seq) so a duplicate straddling a crash
       cannot be double-processed on replay. The bare link keeps its
       historical semantics (every copy is judged). *)
    let taken = Array.make n false and poisoned = Array.make n false in
    let offenders = ref [] in
    let dedup = Option.is_some rd.reliable || Option.is_some rd.remote in
    let seen = Hashtbl.create 7 in
    crash_check rd stage Stage_start;
    let idx = ref 0 in
    let process ~replayed (sender, seq, frame) =
      if sender >= 1 && sender <= n then begin
        if not replayed then begin
          crash_check rd stage (Stage_frame !idx);
          wal_append rd (Round_log.Frame { round; stage; sender; seq; frame })
        end;
        incr idx;
        if ((not dedup) || not (Hashtbl.mem seen (sender, seq))) && not poisoned.(sender - 1)
        then begin
          Hashtbl.replace seen (sender, seq) ();
          match decode frame with
          | Ok m when sender_of m = sender ->
              if not taken.(sender - 1) then begin
                taken.(sender - 1) <- true;
                consume ~sender m
              end
          | Ok _ | Error _ ->
              (* a wrong inner sender id counts as undecodable too *)
              poisoned.(sender - 1) <- true;
              offenders := sender :: !offenders
        end
      end
    in
    List.iter (process ~replayed:true) logged;
    (match rd.remote with
    | Some r when not stage_done ->
        r.r_collect ~round ~stage ~already ~push:(process ~replayed:false)
    | _ -> List.iter (process ~replayed:false) fresh);
    if not stage_done then wal_append rd (Round_log.Stage_done { round; stage });
    crash_check rd stage Stage_end;
    List.sort_uniq compare !offenders
  end

(* an exchange that keeps one accepted message per sender; a poisoned
   sender's slot ends empty *)
let collect rd ~stage ~encode ~decode ~sender_of ~compute =
  let got = Array.make rd.n None in
  let offenders =
    exchange rd ~stage ~encode ~decode ~sender_of ~compute ~consume:(fun ~sender m ->
        got.(sender - 1) <- Some m)
  in
  List.iter (fun i -> got.(i - 1) <- None) offenders;
  (got, offenders)

let note_offenders rd offenders =
  List.iter (Server.mark_decode_failure rd.s.server) offenders;
  rd.decode_failures <- rd.decode_failures @ offenders

(* the lifecycle's one early exit: fewer than t = m+1 survivors *)
let abort rd ~stage ~survivors ~needed =
  match List.sort_uniq compare rd.decode_failures with
  | [] -> raise (Abort (Aborted_insufficient_quorum { stage; survivors; needed }))
  | offenders -> raise (Abort (Aborted_decode offenders))

let check_quorum rd stage =
  let survivors = List.length (Server.honest rd.s.server) in
  if survivors < rd.needed then abort rd ~stage ~survivors ~needed:rd.needed;
  observe_live ()

(* round 1: commitments; returns the honest clients' commit time *)
let commit_stage rd =
  let round = rd.v.round and topo = rd.v.topo and cohort = rd.v.cohort in
  let t = ref 0.0 in
  let commits, offenders =
    span rd "commit" "wire" @@ fun () ->
    collect rd ~stage:Netsim.Commit ~encode:Serial.encode_commit_msg ~decode:Serial.decode_commit
      ~sender_of:(fun (m : Wire.commit_msg) -> m.Wire.sender)
      ~compute:(fun () ->
        span rd "commit" "client" @@ fun () ->
        timed rd t (fun i -> commit_step ~update:rd.updates.(i)))
  in
  span rd "commit" "server" (fun () ->
      Server.begin_round ?topo ?cohort rd.s.server ~round ~commits);
  (* begin_round reset C*, so decode offenders are marked after it *)
  note_offenders rd offenders;
  (* epoch-level convictions: a rejected rotation proof is an
     identity-level offence, applied at the same point bans are *)
  Option.iter
    (fun ep ->
      List.iter
        (fun i -> Server.convict rd.s.server i ~reason:"rotation proof rejected")
        ep.Membership.ep_convicts)
    rd.epoch;
  check_quorum rd "commit";
  (* communication accounting that reads the commit bulk is settled here,
     once, so [commits] is dead beyond this point and the streaming
     pipeline's evictions actually free the round's O(n²) share
     ciphertexts and O(n·d) commitment points. Downloads: one sealed
     share from every dealer whose recipient list holds this client (all
     of the cohort, or the k-regular graph neighbors), plus every
     dealer's check string. *)
  let a = rd.acct in
  if a >= 0 then begin
    Option.iter (fun c -> rd.up <- Wire.commit_msg_size c) commits.(a);
    Array.iter
      (Option.iter (fun (cm : Wire.commit_msg) ->
           if cm.Wire.sender <> a + 1 then begin
             let recips =
               match (topo, cohort) with
               | Some tp, _ -> Topology.neighbors tp cm.Wire.sender
               | None, Some xs -> xs
               | None, None -> Array.init rd.n (fun j -> j + 1)
             in
             let rank = ref (-1) in
             Array.iteri (fun j x -> if x = a + 1 then rank := j) recips;
             if !rank >= 0 then rd.down <- rd.down + Channel.sealed_size cm.Wire.enc_shares.(!rank);
             rd.down <- rd.down + (Wire.point_size * Array.length cm.Wire.check)
           end))
      commits
  end;
  !t

(* round 2 step 1: share verification and flags; returns the honest
   clients' share-verification time *)
let flag_stage rd =
  let round = rd.v.round in
  (* clients receive the server's *validated* view of the commits: a
     structurally invalid commit never reaches a client *)
  let present =
    Array.of_list (List.filter_map Fun.id (Array.to_list (Server.round_commits rd.s.server)))
  in
  Option.iter (fun r -> r.r_commits ~round (Array.map Serial.encode_commit_msg present)) rd.remote;
  let t = ref 0.0 in
  let flags, offenders =
    span rd "flag" "wire" @@ fun () ->
    collect rd ~stage:Netsim.Flag ~encode:Serial.encode_flag_msg ~decode:Serial.decode_flag
      ~sender_of:(fun (m : Wire.flag_msg) -> m.Wire.sender)
      ~compute:(fun () ->
        span rd "flag" "client" @@ fun () -> timed rd t (fun _ -> flag_step ~commits:present))
  in
  note_offenders rd offenders;
  let reveal dealer requests =
    match rd.remote with
    | Some r -> r.r_reveal ~dealer ~requests
    | None -> step rd (reveal_step ~requests) (dealer - 1)
  in
  let cleared =
    span rd "flag" "server" (fun () -> Server.process_flags rd.s.server ~flags ~reveal)
  in
  (match rd.remote with
  | Some r -> r.r_cleared ~round cleared
  | None ->
      List.iter
        (fun (flagger, dealer, value) ->
          let c = rd.s.clients.(flagger - 1) in
          if active rd.v rd.behaviours.(flagger - 1) c then
            Client.accept_cleared_share c ~from:dealer ~value)
        cleared);
  check_quorum rd "flag";
  if rd.acct >= 0 then
    Option.iter (fun f -> rd.up <- rd.up + Wire.flag_msg_size f) flags.(rd.acct);
  !t

(* round 2 step 2: the probabilistic integrity check; returns (server
   check preparation, honest clients' proof time, server verification)
   seconds *)
let proof_stage rd ~predicate ~stream =
  let round = rd.v.round in
  let (s_value, hs), prep_time =
    span rd "check" "server" (fun () -> time (fun () -> Server.prepare_check rd.s.server))
  in
  (* the check string is a pure redraw of the server DRBG: under recovery
     it must reproduce the logged value bit for bit, and a fresh durable
     round logs it as the audit record *)
  (match rd.recovery with
  | Some { rec_s = Some logged; _ } -> check_redrawn ~logged s_value
  | _ -> wal_append rd (Round_log.Check { round; s = s_value }));
  (* the (s, h) broadcast crosses the wire too when serializing; the
     server → client links are assumed reliable in this simulation, so a
     failed round-trip of our own encoding would be a codec bug *)
  let s_value, hs =
    if not rd.serialize then (s_value, hs)
    else begin
      let bcast = Serial.encode_broadcast ~s:s_value ~hs in
      Option.iter (fun r -> r.r_check ~round bcast) rd.remote;
      match Serial.decode_broadcast_r bcast with
      | Ok (s, hs) -> (s, hs)
      | Error e -> failwith ("Driver: broadcast round-trip failed: " ^ Serial.error_to_string e)
    end
  in
  (* The check bases h_t are shared by every client of the round: build
     their fixed-base tables once (cost ~ one table build per base,
     repaid k+1 ladder multiplications per client). A remote server never
     proves, so it skips the table build — remote clients build their own. *)
  let hs_tables =
    if Option.is_some rd.remote then [||]
    else span rd "check" "tables" (fun () -> Parallel.parallel_map Curve25519.Point.Table.make hs)
  in
  (* each arrived proof folds straight into the server's verification
     stream (by default one shard whose single batch is the whole stage)
     instead of being retained *)
  let cfg = match stream with Some cfg -> cfg | None -> Server.stream_cfg ~batch:rd.n () in
  let st = Server.stream_begin ~predicate rd.s.server ~round ~cfg in
  let t = ref 0.0 in
  let offenders =
    span rd "proof" "wire" @@ fun () ->
    exchange rd ~stage:Netsim.Proof ~encode:Serial.encode_proof_msg ~decode:Serial.decode_proof
      ~sender_of:(fun (m : Wire.proof_msg) -> m.Wire.sender)
      ~compute:(fun () ->
        span rd "proof" "client" @@ fun () ->
        timed rd t (fun _ -> proof_step ~predicate ~hs_tables ~s:s_value ~hs))
      ~consume:(fun ~sender m ->
        if sender = rd.acct + 1 then rd.up <- rd.up + Wire.proof_msg_size m;
        span rd "proof" "server" (fun () -> Server.stream_feed st ~sender m))
  in
  (* a proof folded before its sender was poisoned is subtracted again by
     the stream's late-conviction path *)
  note_offenders rd offenders;
  span rd "proof" "server" (fun () -> Server.stream_finish st);
  check_quorum rd "proof";
  (prep_time, !t, Server.stream_elapsed_s st)

(* round 3: secure aggregation over the honest set H, fixed before this
   stage. An undecodable agg frame is treated like a dropped one: every
   other share was computed over H, so the sender stays in H, keeps its
   update in the sum and costs only its own share. *)
let agg_stage rd =
  let round = rd.v.round in
  let honest = Server.honest rd.s.server and malicious = Server.malicious rd.s.server in
  Option.iter (fun r -> r.r_honest ~round ~honest ~malicious) rd.remote;
  let agg_msgs, (_ : int list) =
    span rd "agg" "wire" @@ fun () ->
    collect rd ~stage:Netsim.Agg ~encode:Serial.encode_agg_msg ~decode:Serial.decode_agg
      ~sender_of:(fun (m : Wire.agg_msg) -> m.Wire.sender)
      ~compute:(fun () ->
        span rd "agg" "client" @@ fun () ->
        Array.init rd.n (step rd (agg_step ~honest ~malicious)))
  in
  if rd.acct >= 0 then
    Option.iter (fun a -> rd.up <- rd.up + Wire.agg_msg_size a) agg_msgs.(rd.acct);
  let result, agg_time =
    span rd "agg" "server" (fun () ->
        time (fun () ->
            match rd.v.topo with
            | None -> Server.aggregate rd.s.server ~agg_msgs
            | Some tp ->
                (* neighborhood recovery sub-exchange: in-process it asks
                   the dropout's alive neighbors directly; a remote round
                   goes through the transport hook *)
                let recover ~dropout ~responders =
                  match rd.remote with
                  | Some r -> r.r_recover ~round ~dropout ~responders
                  | None ->
                      List.filter_map
                        (fun i ->
                          Option.map
                            (fun resp -> (i, resp))
                            (step rd (recovery_step ~dropout) (i - 1)))
                        responders
                in
                Server.aggregate_kregular rd.s.server ~topo:tp ~honest ~recover ~agg_msgs))
  in
  (match result with
  | Error (Server.Insufficient_quorum { valid; needed }) ->
      abort rd ~stage:"aggregate" ~survivors:valid ~needed
  | Error _ | Ok _ -> ());
  (result, agg_time)

let round_body rd ~predicate ~stream =
  (* a fresh durable round opens with its boundary snapshot — the restore
     point recovery rolls the server back to before replaying frames. The
     epoch precedes Round_start: replay that finds a Round_start is
     guaranteed to know its round's exact cohort, and a torn epoch means
     the round never started (it simply re-runs fresh). *)
  if Option.is_none rd.recovery then begin
    Option.iter (fun ep -> wal_append rd (Round_log.Epoch ep)) rd.epoch;
    wal_append rd (Round_log.Round_start { round = rd.v.round });
    Option.iter
      (fun w -> Round_log.append w (Round_log.Snapshot (Server.snapshot rd.s.server)))
      rd.wal
  end;
  let commit_s = commit_stage rd in
  let share_verify_s = flag_stage rd in
  let prep_s, proof_s, verify_s = proof_stage rd ~predicate ~stream in
  let result, agg_s = agg_stage rd in
  let aggregate, failure = match result with Ok v -> (Some v, None) | Error e -> (None, Some e) in
  let flagged = Server.malicious rd.s.server in
  wal_append rd (Round_log.Round_end { round = rd.v.round; cstar = flagged; aggregate });
  observe_live ();
  let avg total = if rd.n_honest = 0 then 0.0 else total /. float_of_int rd.n_honest in
  Completed
    {
      aggregate;
      failure;
      flagged;
      decode_failures = List.sort_uniq compare rd.decode_failures;
      client_commit_s = avg commit_s;
      client_share_verify_s = avg share_verify_s;
      client_proof_s = avg proof_s;
      server_prep_s = prep_s;
      server_verify_s = verify_s;
      server_agg_s = agg_s;
      client_up_bytes = rd.up;
      (* downloads: shares + check strings, the (s, h) broadcast and C* *)
      client_down_bytes =
        (if rd.acct < 0 then 0
         else rd.down + Wire.broadcast_size ~k:rd.s.setup.Setup.params.Params.k + (4 * rd.n));
    }

(* Both entry points end here: an abort seals the WAL with a Round_end,
   and the verdict is broadcast. A Server_crashed exception skips both,
   so a killed server never announces a result it did not seal. *)
let run ?(predicate = Predicate.L2) ?serialize ?endpoint ?reliable ?remote ?wal ?crash ?recovery
    ?stream ?epoch ?topology session ~updates ~behaviours ~round =
  let outcome =
    match
      Telemetry.Span.with_ ~attrs:[ ("round", string_of_int round) ] "round" (fun () ->
          round_body ~predicate ~stream
            (open_round ?serialize ?endpoint ?reliable ?remote ?wal ?crash ?recovery ?epoch
               ?topology session ~updates ~behaviours ~round))
    with
    | outcome -> outcome
    | exception Abort outcome ->
        Option.iter
          (fun w ->
            Round_log.append w
              (Round_log.Round_end
                 { round; cstar = Server.malicious session.server; aggregate = None });
            Round_log.sync w)
          wal;
        outcome
  in
  (match remote with
  | Some r -> r.r_result ~round outcome
  | None -> session.clients_at <- round + 1);
  outcome

let run_round_outcome = run ?recovery:None

let completed_exn = function Completed stats -> stats | o -> failwith (outcome_to_string o)

(* --- crash recovery --- *)

(* the one ban rule, for a live outcome and a replayed [Round_end] alike:
   a sealed round bans its C* only when it sealed an aggregate — an abort
   and a failed aggregation both seal [aggregate = None] *)
let ban_sealed server ~cstar ~aggregate =
  if Option.is_some aggregate then List.iter (Server.ban server) cstar

(* The one restore step: put the session's server where the uncrashed run
   stood when [round] opened. The crashed server's memory is gone, so a
   fresh one is rebuilt from the session seed (create_session's fork
   label), takes the round's membership and restores the last snapshot
   logged at or before [round]. Every round logged after that snapshot is
   then replayed: its check string is redrawn from the DRBG and checked
   against the logged one, and its ban rule applied. *)
let restore_at ?epoch session records ~round =
  let root = Prng.Drbg.create_string session.seed in
  let server = Server.create session.setup (Prng.Drbg.fork root "server") in
  session.server <- server;
  (* membership must be live BEFORE restore: [Server.restore] re-derives
     the sampling matrix from the snapshotted s over the ACTIVE directory
     entries, so the rotated keys and the cohort go in first *)
  (match epoch with
  | Some ep ->
      apply_epoch session ep;
      Server.set_active server (Some ep.Membership.ep_cohort)
  | None -> Server.install_directory server (Array.map Client.public_key session.clients));
  (* a snapshot belongs to the round whose Round_start precedes it *)
  let _, snap =
    List.fold_left
      (fun (cur, acc) r ->
        match r with
        | Round_log.Round_start { round } -> (round, acc)
        | Round_log.Snapshot s when cur <= round -> (cur, Some (cur, s))
        | _ -> (cur, acc))
      (0, None) records
  in
  let base =
    match snap with
    | Some (r, s) ->
        Server.restore server s;
        r
    | None -> 1
  in
  List.iter
    (function
      | Round_log.Check { round = r; s } when r >= base && r < round ->
          check_redrawn ~logged:s (fst (Server.prepare_check server))
      | Round_log.Round_end { round = r; cstar; aggregate } when r >= base && r < round ->
          ban_sealed server ~cstar ~aggregate
      | _ -> ())
    records

let recover_round ?predicate ?endpoint ?reliable ?remote ?wal ?stream ?epoch ?topology session
    ~records ~updates ~behaviours ~round =
  Telemetry.Span.with_
    ~attrs:[ ("round", string_of_int round) ]
    "recover"
    (fun () ->
      (* prefer the caller's epoch; fall back to the crashed round's
         logged one (written before its Round_start, so any round that
         began has it on disk) *)
      let epoch =
        match epoch with
        | Some _ as e -> e
        | None ->
            List.fold_left
              (fun acc r ->
                match r with
                | Round_log.Epoch e when e.Membership.ep_round = round -> Some e
                | _ -> acc)
              None records
      in
      restore_at ?epoch session records ~round;
      run ?predicate ?endpoint ?reliable ?remote ?wal ~recovery:(recovery_of_records ~round records)
        ?stream ?epoch ?topology session ~updates ~behaviours ~round)

(* --- multi-round session loop --- *)

(* totals over every epoch's standing deltas (satellite of the elastic
   layer: the report shows how much the membership actually moved) *)
type churn_counts = { joined : int; left : int; rejoined : int; rotated : int }

type session_report = {
  rounds_attempted : int;
  rounds_completed : int;
  round_outcomes : (int * round_outcome) list;
  final_banned : int list;
  crashes_recovered : int;
  resumed_round : int option;
  cohort_sizes : (int * int) list;
  churn : churn_counts;
}

let run_session ?predicate ?serialize ?endpoint ?reliable ?remote ?wal ?crash ?stream ?cohort_for
    ?topology session ~updates_for ~behaviours ~rounds =
  if rounds < 1 then invalid_arg "Driver.run_session: rounds must be >= 1";
  let n = Array.length session.clients in
  let read_log w =
    Round_log.sync w;
    fst (Round_log.replay (Round_log.path w))
  in
  (* resume on entry: the log decides where this call picks up *)
  let records = match wal with Some w -> read_log w | None -> [] in
  let first = Round_log.resume_point records in
  let resumed_round = if records = [] then None else Some first in
  (* fresh in-process clients restart their sequential DRBGs at genesis:
     resuming anywhere else would redraw an earlier round's blinds *)
  if Option.is_some resumed_round && Option.is_none remote && first <> session.clients_at then
    invalid_arg
      (Printf.sprintf
         "Driver.run_session: the log resumes at round %d, but this session's own clients are at \
          round %d"
         first session.clients_at);
  let outcomes = ref [] in
  let completed = ref 0 in
  let recovered = ref 0 in
  let sizes = ref [] in
  let joined = ref 0 and left = ref 0 and rejoined = ref 0 and rotated = ref 0 in
  for round = first to rounds do
    let updates = updates_for round in
    (* freeze this round's membership before any frame moves; the same
       epoch re-enters the round after a crash so recovery replays under
       the identical cohort *)
    let epoch = match cohort_for with Some f -> f round | None -> None in
    (match epoch with
    | Some ep ->
        sizes := (round, Membership.epoch_cohort_size ep) :: !sizes;
        List.iter
          (fun d ->
            match d with
            | Membership.D_joined _ -> incr joined
            | Membership.D_left _ -> incr left
            | Membership.D_rejoined _ -> incr rejoined
            | Membership.D_rotated _ -> incr rotated
            | Membership.D_rotation_rejected _ -> ())
          ep.Membership.ep_deltas
    | None -> sizes := (round, n) :: !sizes);
    let crash_here =
      match crash with Some (r, stage, at) when r = round -> Some (stage, at) | _ -> None
    in
    let fresh () =
      run_round_outcome ?predicate ?serialize ?endpoint ?reliable ?remote ?wal ?crash:crash_here
        ?stream ?epoch ?topology session ~updates ~behaviours ~round
    in
    (* the one resume path, on entry and after an in-loop crash alike: a
       round the log left open is finished from its logged frames;
       otherwise the server is restored to the round's boundary and the
       round runs fresh *)
    let resume records =
      if Round_log.pending_round records = Some round then
        recover_round ?predicate ?endpoint ?reliable ?remote ?wal ?stream ?epoch ?topology session
          ~records ~updates ~behaviours ~round
      else begin
        restore_at ?epoch session records ~round;
        fresh ()
      end
    in
    let outcome =
      match if round = first && Option.is_some resumed_round then resume records else fresh () with
      | outcome -> outcome
      | exception (Server_crashed _ as e) -> (
          (* with a WAL the loop replays the log it was writing; a remote
             server's process is what died, and without a WAL there is
             nothing to replay *)
          match wal with
          | Some w when Option.is_none remote ->
              incr recovered;
              resume (read_log w)
          | _ -> raise e)
    in
    (match outcome with
    | Completed stats ->
        incr completed;
        (* carry C* across rounds: convicted clients start the next round
           banned *)
        ban_sealed session.server ~cstar:stats.flagged ~aggregate:stats.aggregate
    | Aborted_insufficient_quorum _ | Aborted_decode _ -> ());
    outcomes := (round, outcome) :: !outcomes
  done;
  {
    rounds_attempted = List.length !outcomes;
    rounds_completed = !completed;
    round_outcomes = List.rev !outcomes;
    final_banned = Server.banned session.server;
    crashes_recovered = !recovered;
    resumed_round;
    cohort_sizes = List.rev !sizes;
    churn = { joined = !joined; left = !left; rejoined = !rejoined; rotated = !rotated };
  }

(* The seeded-churn cohort hook: one Membership state advanced through
   the schedule, memoized per round (recovery re-asks for the crashed
   round and must get the identical epoch back, not a double-advanced
   one). Epochs materialize lazily in round order; rotation proofs are
   signed by the session's own clients with their current keys, so the
   hook composes with {!run_session}'s round-by-round application. *)
let churn_cohort_for session ~spec ~rounds =
  let n = Array.length session.clients in
  let mem = Membership.create (Array.map Client.public_key session.clients) in
  let sched = Membership.schedule ~seed:session.seed spec ~n ~rounds in
  let cache = Hashtbl.create 7 in
  let next = ref 1 in
  fun round ->
    if round < 1 || round > rounds then None
    else begin
      while !next <= round do
        let r = !next in
        let ep =
          Membership.advance mem ~round:r ~events:sched.(r - 1)
            ~rotation_for:(fun ~id ~gen:_ ->
              Some (Client.rotation_proof session.clients.(id - 1)))
        in
        (* adopt accepted rotations eagerly: the next epoch's rotation
           proof must be signed with the post-rotation key even when
           epochs materialize ahead of round execution (fast-forward
           after a restart or a rejoin). [rotate_to] touches no
           sequential DRBG state, so this cannot desync the stream. *)
        List.iter
          (function
            | Membership.D_rotated i ->
                Client.rotate_to session.clients.(i - 1) ~gen:ep.Membership.ep_gens.(i - 1)
            | _ -> ())
          ep.Membership.ep_deltas;
        Hashtbl.replace cache r ep;
        incr next
      done;
      Hashtbl.find_opt cache round
    end
