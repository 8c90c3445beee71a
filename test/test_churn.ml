(* Elastic membership: seeded churn schedules, key-rotation continuity,
   the elastic-vs-scripted-twin differential, crash recovery at epoch
   boundaries, rejoin standing, and the Epoch WAL record's corruption
   behaviour. *)

module Driver = Risefl_core.Driver
module Membership = Risefl_core.Membership
module Client = Risefl_core.Client
module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Round_log = Risefl_core.Round_log
module Reliable = Risefl_core.Reliable
module Topology = Risefl_topology.Topology
module Updates = Risefl_transport.Updates
module Point = Curve25519.Point

let fail fmt = Alcotest.failf fmt

let n = 6
let m = 1
let d = 8
let k = 3
let bound = 900.0
let rounds = 6

let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound ()
let setup = Setup.create ~label:"cli/test-churn" params

(* churny enough that a 6-round run sees leaves, rejoins and rotations;
   min_cohort 4 keeps every round over the quorum threshold t = m+1 *)
let spec = { Membership.p_leave = 0.35; p_rejoin = 0.6; p_rotate = 0.25; min_cohort = 4 }

(* outcomes projected to their deterministic content (timings dropped) *)
let view = function
  | Driver.Completed s -> `Completed (s.Driver.flagged, s.Driver.aggregate)
  | Driver.Aborted_insufficient_quorum { stage; survivors; needed } ->
      `Quorum (stage, survivors, needed)
  | Driver.Aborted_decode ids -> `Decode ids

let views report = List.map (fun (r, o) -> (r, view o)) report.Driver.round_outcomes

let tmp_name suffix =
  let f = Filename.temp_file "test-churn" suffix in
  Sys.remove f;
  f

let rm_f f = try Sys.remove f with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* seeded churn schedules *)

let test_schedule_deterministic () =
  let s1 = Membership.schedule ~seed:"alpha" spec ~n ~rounds in
  let s2 = Membership.schedule ~seed:"alpha" spec ~n ~rounds in
  if s1 <> s2 then fail "same seed must derive the identical schedule";
  if s1.(0) <> [] then fail "round 1 must start with the full cohort";
  let s3 = Membership.schedule ~seed:"beta" spec ~n ~rounds in
  if s1 = s3 then fail "the seed does not drive the schedule";
  let events = Array.fold_left (fun acc evs -> acc + List.length evs) 0 s1 in
  if events = 0 then fail "expected churn events under this spec";
  (* the floor: replaying any schedule through Membership must never
     shrink the cohort below min_cohort *)
  let session = Driver.create_session setup ~seed:"alpha" in
  let mem =
    Membership.create (Array.map Client.public_key (Driver.session_clients session))
  in
  Array.iteri
    (fun i evs ->
      let ep =
        Membership.advance mem ~round:(i + 1) ~events:evs ~rotation_for:(fun ~id ~gen:_ ->
            Some (Client.rotation_proof (Driver.session_clients session).(id - 1)))
      in
      List.iter
        (function
          | Membership.D_rotated j ->
              Client.rotate_to
                (Driver.session_clients session).(j - 1)
                ~gen:ep.Membership.ep_gens.(j - 1)
          | _ -> ())
        ep.Membership.ep_deltas;
      if Array.length ep.Membership.ep_cohort < spec.Membership.min_cohort then
        fail "round %d cohort fell below the schedule floor" (i + 1))
    s1

(* ------------------------------------------------------------------ *)
(* key-rotation continuity proofs *)

let test_rotation_proofs () =
  let session = Driver.create_session setup ~seed:"rotate" in
  let clients = Driver.session_clients session in
  let rot = Client.rotation_proof clients.(0) in
  if not (Membership.verify_rotation rot ~pk_old:(Client.public_key clients.(0))) then
    fail "honest rotation proof rejected";
  if Membership.verify_rotation rot ~pk_old:(Client.public_key clients.(1)) then
    fail "rotation proof verified against the wrong outgoing key";
  (* a rotation claiming someone else's id breaks the challenge binding:
     advance must convict the claimant, not adopt the key *)
  let mem = Membership.create (Array.map Client.public_key clients) in
  let forged = { rot with Membership.rot_id = 2 } in
  let ep =
    Membership.advance mem ~round:2 ~events:[ Membership.Rotate 2 ]
      ~rotation_for:(fun ~id:_ ~gen:_ -> Some forged)
  in
  if ep.Membership.ep_convicts <> [ 2 ] then fail "forged rotation did not convict";
  if Membership.standing mem 2 <> Membership.Banned then
    fail "forged rotation left standing %s"
      (Membership.standing_to_string (Membership.standing mem 2));
  if not (Point.equal ep.Membership.ep_pks.(1) (Client.public_key clients.(1))) then
    fail "forged rotation mutated the directory";
  (* honest rotations adopt and chain: two generations in sequence *)
  let mem2 = Membership.create (Array.map Client.public_key clients) in
  let rotate_round r =
    let ep =
      Membership.advance mem2 ~round:r ~events:[ Membership.Rotate 3 ]
        ~rotation_for:(fun ~id ~gen:_ -> Some (Client.rotation_proof clients.(id - 1)))
    in
    List.iter
      (function
        | Membership.D_rotated j ->
            Client.rotate_to clients.(j - 1) ~gen:ep.Membership.ep_gens.(j - 1)
        | _ -> ())
      ep.Membership.ep_deltas;
    ep
  in
  let ep2 = rotate_round 2 in
  let ep3 = rotate_round 3 in
  if ep2.Membership.ep_gens.(2) <> 1 || ep3.Membership.ep_gens.(2) <> 2 then
    fail "rotation generations did not chain (got %d then %d)" ep2.Membership.ep_gens.(2)
      ep3.Membership.ep_gens.(2);
  if Point.equal ep2.Membership.ep_pks.(2) ep3.Membership.ep_pks.(2) then
    fail "second rotation kept the same key"

(* ------------------------------------------------------------------ *)
(* the correctness anchor: seeded churn vs a scripted twin *)

let updates_for ~seed round = Updates.make ~n ~d ~bound ~seed ~attackers:[ 2 ] ~round
let behaviours () = Updates.behaviours ~n ~attackers:[ 2 ]

(* the twin: every epoch materialized statically, ahead of any round *)
let scripted_epochs session ~seed =
  let clients = Driver.session_clients session in
  let mem = Membership.create (Array.map Client.public_key clients) in
  let sched = Membership.schedule ~seed spec ~n ~rounds in
  Array.init rounds (fun i ->
      let r = i + 1 in
      let ep =
        Membership.advance mem ~round:r ~events:sched.(r - 1)
          ~rotation_for:(fun ~id ~gen:_ -> Some (Client.rotation_proof clients.(id - 1)))
      in
      List.iter
        (function
          | Membership.D_rotated j ->
              Client.rotate_to clients.(j - 1) ~gen:ep.Membership.ep_gens.(j - 1)
          | _ -> ())
        ep.Membership.ep_deltas;
      ep)

let run_elastic ~seed ~topology () =
  let session = Driver.create_session setup ~seed in
  let report =
    Driver.run_session ~topology session
      ~cohort_for:(Driver.churn_cohort_for session ~spec ~rounds)
      ~updates_for:(updates_for ~seed) ~behaviours:(behaviours ()) ~rounds
  in
  (views report, report)

let run_twin ~seed ~topology () =
  (* the epochs are scripted against a scratch session: same seed, so its
     key derivations (including every rotation generation) are identical,
     but pre-materializing them does not rotate the live clients ahead of
     the epochs they will consume in round order *)
  let eps = scripted_epochs (Driver.create_session setup ~seed) ~seed in
  let session = Driver.create_session setup ~seed in
  let report =
    Driver.run_session ~topology session
      ~cohort_for:(fun r -> Some eps.(r - 1))
      ~updates_for:(updates_for ~seed) ~behaviours:(behaviours ()) ~rounds
  in
  (views report, report)

let test_differential () =
  let seed = "churn-differential" in
  List.iter
    (fun topology ->
      let twin_views, twin_report = run_twin ~seed ~topology () in
      let saved_jobs = Parallel.default_jobs () in
      List.iter
        (fun jobs ->
          Parallel.set_default_jobs jobs;
          let ev, er = run_elastic ~seed ~topology () in
          if ev <> twin_views then
            fail "elastic run (jobs=%d) diverged from the scripted twin" jobs;
          if er.Driver.cohort_sizes <> twin_report.Driver.cohort_sizes then
            fail "cohort sizes diverged (jobs=%d)" jobs;
          if er.Driver.churn <> twin_report.Driver.churn then
            fail "churn counts diverged (jobs=%d)" jobs)
        [ 1; 2; 4 ];
      Parallel.set_default_jobs saved_jobs;
      (* the report must actually reflect churn, not a fixed cohort *)
      let c = twin_report.Driver.churn in
      if c.Driver.left + c.Driver.rejoined + c.Driver.rotated = 0 then
        fail "no churn happened over %d rounds — weak differential" rounds;
      if List.length twin_report.Driver.cohort_sizes <> rounds then
        fail "expected one cohort size per round";
      if not (List.exists (fun (_, size) -> size < n) twin_report.Driver.cohort_sizes) then
        fail "cohort never shrank — weak differential")
    [ Topology.Full; Topology.Kregular k ]

(* ------------------------------------------------------------------ *)
(* crash at an epoch boundary *)

let test_crash_at_epoch_boundary () =
  let seed = "churn-crash" in
  let reference, _ = run_elastic ~seed ~topology:Topology.Full () in
  (* die before the commit intake of round 3: the Epoch and Round_start
     records are already fsynced, so recovery must re-enter round 3 under
     the exact logged cohort *)
  let wal_file = tmp_name ".wal" in
  let wal = Round_log.create wal_file in
  let session = Driver.create_session setup ~seed in
  let report =
    Driver.run_session ~wal
      ~crash:(3, Netsim.Commit, Driver.Stage_start)
      ~cohort_for:(Driver.churn_cohort_for session ~spec ~rounds)
      session ~updates_for:(updates_for ~seed) ~behaviours:(behaviours ()) ~rounds
  in
  Round_log.close wal;
  if report.Driver.crashes_recovered <> 1 then
    fail "expected exactly one recovered crash, got %d" report.Driver.crashes_recovered;
  if views report <> reference then
    fail "recovery at the epoch boundary diverged from the uncrashed run";
  (* the log must carry one Epoch record per started round, each written
     before its Round_start *)
  let records, _ = Round_log.replay wal_file in
  rm_f wal_file;
  let rec check_order seen = function
    | [] -> ()
    | Round_log.Epoch ep :: rest ->
        check_order (ep.Membership.ep_round :: seen) rest
    | Round_log.Round_start { round } :: rest ->
        if not (List.mem round seen) then
          fail "round %d started without its epoch in the log" round;
        check_order seen rest
    | _ :: rest -> check_order seen rest
  in
  check_order [] records

(* ------------------------------------------------------------------ *)
(* dropout-then-rejoin preserves standing *)

let test_rejoin_standing () =
  let seed = "churn-rejoin" in
  let session = Driver.create_session setup ~seed in
  let clients = Driver.session_clients session in
  let mem = Membership.create (Array.map Client.public_key clients) in
  let adv r events =
    Membership.advance mem ~round:r ~events ~rotation_for:(fun ~id ~gen:_ ->
        Some (Client.rotation_proof clients.(id - 1)))
  in
  (* round 1: full cohort (attacker 2 gets convicted); round 2: the
     convicted 2 and the honest 5 both leave; round 3: both return.
     Sequenced explicitly — array literals evaluate right-to-left. *)
  let ep1 = adv 1 [] in
  let ep2 = adv 2 [ Membership.Leave 2; Membership.Leave 5 ] in
  let ep3 = adv 3 [ Membership.Join 2; Membership.Join 5 ] in
  let eps = [| ep1; ep2; ep3 |] in
  let report =
    Driver.run_session session
      ~cohort_for:(fun r -> Some eps.(r - 1))
      ~updates_for:(updates_for ~seed) ~behaviours:(behaviours ()) ~rounds:3
  in
  if report.Driver.cohort_sizes <> [ (1, n); (2, n - 2); (3, n) ] then
    fail "unexpected cohort sizes";
  let c = report.Driver.churn in
  if c.Driver.left <> 2 || c.Driver.rejoined <> 2 then
    fail "expected 2 leaves and 2 rejoins, got %d/%d" c.Driver.left c.Driver.rejoined;
  (* the attacker's C* membership survived its absence *)
  if not (List.mem 2 report.Driver.final_banned) then
    fail "conviction did not survive the absence";
  (match List.assoc 3 (List.map (fun (r, o) -> (r, view o)) report.Driver.round_outcomes) with
  | `Completed (flagged, Some _) ->
      if not (List.mem 2 flagged) then fail "rejoined attacker not in round-3 C*";
      if List.mem 5 flagged then fail "honest rejoiner was re-convicted"
  | _ -> fail "round 3 did not complete");
  if List.mem 5 report.Driver.final_banned then fail "honest rejoiner banned"

(* ------------------------------------------------------------------ *)
(* the Epoch WAL record: round-trip, corruption, and mismatch typing *)

let sample_epoch session =
  let clients = Driver.session_clients session in
  let mem = Membership.create (Array.map Client.public_key clients) in
  ignore
    (Membership.advance mem ~round:1 ~events:[] ~rotation_for:(fun ~id:_ ~gen:_ -> None));
  Membership.advance mem ~round:2
    ~events:[ Membership.Leave 4; Membership.Rotate 1 ]
    ~rotation_for:(fun ~id ~gen:_ -> Some (Client.rotation_proof clients.(id - 1)))

let test_epoch_record_roundtrip () =
  let session = Driver.create_session setup ~seed:"epoch-rt" in
  let ep = sample_epoch session in
  let wal_file = tmp_name ".wal" in
  let wal = Round_log.create wal_file in
  Round_log.append wal (Round_log.Epoch ep);
  Round_log.append wal (Round_log.Round_start { round = 2 });
  Round_log.close wal;
  let records, status = Round_log.replay wal_file in
  rm_f wal_file;
  (match status with
  | Store.Wal.Complete -> ()
  | _ -> fail "clean log did not replay clean");
  match records with
  | [ Round_log.Epoch got; Round_log.Round_start { round = 2 } ] ->
      if got.Membership.ep_round <> ep.Membership.ep_round then fail "ep_round mangled";
      if got.Membership.ep_cohort <> ep.Membership.ep_cohort then fail "cohort mangled";
      if got.Membership.ep_gens <> ep.Membership.ep_gens then fail "generations mangled";
      if got.Membership.ep_deltas <> ep.Membership.ep_deltas then fail "deltas mangled";
      if got.Membership.ep_convicts <> ep.Membership.ep_convicts then fail "convicts mangled";
      Array.iteri
        (fun i pk ->
          if not (Point.equal pk got.Membership.ep_pks.(i)) then fail "directory mangled")
        ep.Membership.ep_pks
  | _ -> fail "epoch record did not round-trip"

let test_epoch_record_corruption () =
  let session = Driver.create_session setup ~seed:"epoch-corrupt" in
  let ep = sample_epoch session in
  (* a log holding exactly one Epoch record *)
  let wal_file = tmp_name ".wal" in
  let wal = Round_log.create wal_file in
  Round_log.append wal (Round_log.Epoch ep);
  Round_log.close wal;
  let ic = open_in_bin wal_file in
  let len = in_channel_length ic in
  let original = really_input_string ic len in
  close_in ic;
  rm_f wal_file;
  let write_variant bytes =
    let oc = open_out_bin wal_file in
    output_string oc bytes;
    close_out oc
  in
  (* every single-byte flip must reject the record — never decode to a
     different cohort *)
  for i = 0 to len - 1 do
    let b = Bytes.of_string original in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
    write_variant (Bytes.to_string b);
    let records, status = Round_log.replay wal_file in
    (match status with
    | Store.Wal.Complete ->
        (* CRC collisions cannot happen on a single-byte flip *)
        fail "byte flip at %d replayed clean" i
    | _ -> ());
    match records with
    | [] -> ()
    | _ -> fail "byte flip at %d still yielded a record" i
  done;
  (* every truncation must reject cleanly too *)
  for cut = 0 to len - 1 do
    write_variant (String.sub original 0 cut);
    let records, _ = Round_log.replay wal_file in
    if records <> [] then fail "truncation at %d yielded a record" cut
  done;
  (* mid-log corruption: a corrupt Epoch terminates the scan before the
     records that follow it — recovery sees a short log, never a wrong
     cohort. Measure the first record's span by writing it alone (record
     encodings are deterministic), then corrupt the Epoch's midpoint.
     [Round_log.create] appends, so clear the truncation leftovers. *)
  rm_f wal_file;
  let wal = Round_log.create wal_file in
  Round_log.append wal (Round_log.Round_end { round = 1; cstar = []; aggregate = Some [| 0 |] });
  Round_log.close wal;
  let ic = open_in_bin wal_file in
  let first_len = in_channel_length ic in
  close_in ic;
  rm_f wal_file;
  let wal = Round_log.create wal_file in
  Round_log.append wal (Round_log.Round_end { round = 1; cstar = []; aggregate = Some [| 0 |] });
  Round_log.append wal (Round_log.Epoch ep);
  Round_log.append wal (Round_log.Round_start { round = 2 });
  Round_log.close wal;
  let ic = open_in_bin wal_file in
  let len2 = in_channel_length ic in
  let full = really_input_string ic len2 in
  close_in ic;
  (* the Epoch record occupies the same [len] bytes it did alone, offset
     by the first record *)
  let mid = first_len + (len / 2) in
  let b = Bytes.of_string full in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x41));
  write_variant (Bytes.to_string b);
  let records, status = Round_log.replay wal_file in
  rm_f wal_file;
  (match status with
  | Store.Wal.Complete -> fail "mid-log corrupt epoch replayed clean"
  | _ -> ());
  (match records with
  | [ Round_log.Round_end { round = 1; _ } ] -> ()
  | _ -> fail "mid-log corruption did not keep exactly the good prefix");
  (* a decoded-valid epoch that contradicts the session raises the typed
     mismatch instead of running a wrong cohort *)
  let other = Driver.create_session setup ~seed:"epoch-other" in
  let foreign = sample_epoch other in
  match Driver.apply_epoch session foreign with
  | () -> fail "foreign epoch applied silently"
  | exception Driver.Epoch_mismatch _ -> ()

(* ------------------------------------------------------------------ *)
(* one-shot rounds: every link gives the plain round's verdict *)

let test_one_shot_links () =
  let seed = "iteration-parity" in
  let updates = Updates.make ~n ~d ~bound ~seed ~attackers:[] ~round:1 in
  let behaviours = Driver.honest_all n in
  let one_shot ?endpoint ?reliable ?wal () =
    let s =
      Driver.completed_exn
        (Driver.run_round_outcome ?endpoint ?reliable ?wal (Driver.create_session setup ~seed)
           ~updates ~behaviours ~round:1)
    in
    (s.Driver.flagged, s.Driver.aggregate)
  in
  let ideal () = Netsim.endpoint (Netsim.create ~plan:Netsim.ideal ~deadline:4 ~seed ()) in
  let plain = one_shot () in
  let via_endpoint = one_shot ~endpoint:(ideal ()) () in
  let via_reliable = one_shot ~reliable:(Reliable.create_ep (ideal ())) () in
  let wal_file = tmp_name ".wal" in
  let wal = Round_log.create wal_file in
  let via_wal = one_shot ~wal () in
  Round_log.close wal;
  let logged, _ = Round_log.replay wal_file in
  rm_f wal_file;
  if logged = [] then fail "?wal logged nothing";
  List.iter
    (fun (name, got) -> if got <> plain then fail "one-shot round over ?%s diverged" name)
    [ ("endpoint", via_endpoint); ("reliable", via_reliable); ("wal", via_wal) ]

(* ------------------------------------------------------------------ *)
(* the shrunken-cohort degree clamp *)

let test_degree_clamp () =
  let full = Array.init n (fun i -> i + 1) in
  let small = [| 1; 2; 4; 5; 6 |] in
  (* full cohort: the request stands *)
  (match Driver.effective_topology setup ~cohort:full (Topology.Kregular 5) with
  | Topology.Kregular 5 -> ()
  | _ -> fail "full-cohort request was rewritten");
  (* a degree the shrunken cohort cannot sustain is re-derived *)
  Telemetry.reset ();
  Telemetry.enable ();
  (match Driver.effective_topology setup ~cohort:small (Topology.Kregular 5) with
  | Topology.Kregular k' ->
      if k' < 2 || k' > Array.length small - 1 then fail "clamped degree %d out of range" k'
  | Topology.Full -> fail "clamp produced Full (plan normalizes, the mode must stay kregular)");
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  (match List.assoc_opt "topology.degree_clamped" snap.Telemetry.counters with
  | Some c when c >= 1 -> ()
  | _ -> fail "degree clamp left no audit counter");
  (* a sustainable degree passes through untouched *)
  (match Driver.effective_topology setup ~cohort:small (Topology.Kregular 2) with
  | Topology.Kregular 2 -> ()
  | _ -> fail "sustainable degree was rewritten");
  (match Driver.effective_topology setup ~cohort:small Topology.Full with
  | Topology.Full -> ()
  | _ -> fail "Full must never be rewritten")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "churn"
    [
      ( "membership",
        [
          Alcotest.test_case "seeded schedule" `Quick test_schedule_deterministic;
          Alcotest.test_case "rotation proofs" `Quick test_rotation_proofs;
          Alcotest.test_case "degree clamp" `Quick test_degree_clamp;
        ] );
      ( "epoch-log",
        [
          Alcotest.test_case "record round-trip" `Quick test_epoch_record_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_epoch_record_corruption;
        ] );
      ( "elastic-session",
        [
          Alcotest.test_case "differential vs scripted twin" `Slow test_differential;
          Alcotest.test_case "crash at epoch boundary" `Slow test_crash_at_epoch_boundary;
          Alcotest.test_case "rejoin preserves standing" `Slow test_rejoin_standing;
          Alcotest.test_case "one-shot link parity" `Quick test_one_shot_links;
        ] );
    ]
