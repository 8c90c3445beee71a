(* Durability tests: the differential crash-point sweep (server killed at
   every stage boundary plus seeded mid-stage points, recovery must
   reproduce the uncrashed aggregate and C* bit for bit, across worker
   counts), the duplicated-agg-share no-double-count regression, torn
   round-log tails, and the multi-round session loop with in-loop
   recovery and resume on entry. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Round_log = Risefl_core.Round_log
module Serial = Risefl_core.Serial

let fail fmt = Alcotest.failf fmt

let n = 5
let m = 2
let d = 12
let k = 3

let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:900.0 ()
let setup = Setup.create ~label:"test/recovery" params

let updates_for round =
  let drbg = Prng.Drbg.create_string (Printf.sprintf "recovery/updates/r%d" round) in
  Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int drbg 40 - 20))

let expected_sum updates honest =
  Array.init d (fun l -> List.fold_left (fun acc i -> acc + updates.(i - 1).(l)) 0 honest)

let fresh_wal () =
  let path = Filename.temp_file "test-recovery" ".wal" in
  Sys.remove path;
  path

let completed = function
  | Driver.Completed stats -> stats
  | o -> fail "expected a completed round, got: %s" (Driver.outcome_to_string o)

let agg_and_cstar outcome =
  let stats = completed outcome in
  (stats.Driver.aggregate, stats.Driver.flagged)

(* ------------------------------------------------------------------ *)
(* differential crash-point sweep *)

(* Two sessions with the same seed advance in lockstep: the reference
   runs each round uncrashed (at a fixed jobs count); the victim runs the
   same round under a WAL, dies at the sweep point, is recovered from the
   log, and must produce the identical aggregate and C*. The victim's
   jobs count cycles 1/2/4 per point, so every sweep point also checks
   that recovery is worker-count-invariant. *)
let test_crash_sweep () =
  let boundaries =
    List.concat_map
      (fun stage -> [ (stage, Driver.Stage_start); (stage, Driver.Stage_end) ])
      [ Netsim.Commit; Netsim.Flag; Netsim.Proof; Netsim.Agg ]
  in
  let seeded = Driver.seeded_crashes ~seed:"sweep" ~n:3 ~max_step:n in
  let points = boundaries @ seeded in
  let reference = Driver.create_session setup ~seed:"sweep-session" in
  let victim = Driver.create_session setup ~seed:"sweep-session" in
  let wal_path = fresh_wal () in
  let wal = Round_log.create ~fsync:false wal_path in
  let behaviours = Driver.honest_all n in
  let jobs_cycle = [| 1; 2; 4 |] in
  List.iteri
    (fun i (stage, at) ->
      let round = i + 1 in
      let updates = updates_for round in
      Parallel.set_default_jobs 2;
      let want =
        agg_and_cstar (Driver.run_round_outcome reference ~serialize:true ~updates ~behaviours ~round)
      in
      Parallel.set_default_jobs jobs_cycle.(i mod 3);
      let got =
        match
          Driver.run_round_outcome victim ~wal ~crash:(stage, at) ~updates ~behaviours ~round
        with
        | outcome -> outcome (* the planned point was never reached *)
        | exception Driver.Server_crashed _ ->
            let records, _ = Round_log.replay wal_path in
            Driver.recover_round ~wal victim ~records ~updates ~behaviours ~round
      in
      let got = agg_and_cstar got in
      if got <> want then
        fail "crash at %s (round %d, jobs %d): recovered (aggregate, C*) differs from uncrashed"
          (Driver.crash_to_string (stage, at))
          round
          jobs_cycle.(i mod 3);
      (* both must also be the plain honest sum *)
      if fst got <> Some (expected_sum updates (List.init n (fun i -> i + 1))) then
        fail "crash at %s: aggregate is not the honest sum" (Driver.crash_to_string (stage, at)))
    points;
  Round_log.close wal;
  Sys.remove wal_path;
  Parallel.set_default_jobs 2

(* a crash plan that never fires behaves exactly like no crash *)
let test_crash_point_not_reached () =
  let session = Driver.create_session setup ~seed:"no-fire" in
  let wal_path = fresh_wal () in
  let wal = Round_log.create ~fsync:false wal_path in
  let updates = updates_for 1 in
  let outcome =
    Driver.run_round_outcome session ~wal ~crash:(Netsim.Agg, Driver.Stage_frame 99) ~updates
      ~behaviours:(Driver.honest_all n) ~round:1
  in
  let agg, cstar = agg_and_cstar outcome in
  if cstar <> [] || agg <> Some (expected_sum updates (List.init n (fun i -> i + 1))) then
    fail "unfired crash plan changed the round result";
  Round_log.close wal;
  Sys.remove wal_path

(* cross-process resume: a *fresh* session (client and server state
   rebuilt from the seed, empty outbox) finishes a round-1 crash from
   the log alone, bit-identically *)
let test_fresh_session_resume () =
  let updates = updates_for 1 in
  let behaviours = Driver.honest_all n in
  let reference = Driver.create_session setup ~seed:"resume" in
  let want =
    agg_and_cstar (Driver.run_round_outcome reference ~serialize:true ~updates ~behaviours ~round:1)
  in
  let wal_path = fresh_wal () in
  let crashed = Driver.create_session setup ~seed:"resume" in
  let wal = Round_log.create ~fsync:false wal_path in
  (try
     ignore
       (Driver.run_round_outcome crashed ~wal ~crash:(Netsim.Proof, Driver.Stage_frame 2) ~updates
          ~behaviours ~round:1)
   with Driver.Server_crashed _ -> ());
  Round_log.close wal;
  (* a different process: brand-new session over the same seed *)
  let resumed = Driver.create_session setup ~seed:"resume" in
  let records, _ = Round_log.replay wal_path in
  let got = agg_and_cstar (Driver.recover_round resumed ~records ~updates ~behaviours ~round:1) in
  if got <> want then fail "fresh-session resume differs from the uncrashed run";
  Sys.remove wal_path

(* the same crash/resume flow with the frames carried by an alternate
   Transport_intf.S backend (the socketpair loopback): frame reassembly
   from partial reads must not disturb the recovery bit-identity *)
let test_fresh_session_resume_loopback () =
  let module Loopback = Risefl_transport.Loopback in
  let updates = updates_for 1 in
  let behaviours = Driver.honest_all n in
  let reference = Driver.create_session setup ~seed:"resume-lb" in
  let want =
    agg_and_cstar (Driver.run_round_outcome reference ~serialize:true ~updates ~behaviours ~round:1)
  in
  let ep () = Loopback.endpoint (Loopback.create ~seed:"resume-lb" ()) in
  let wal_path = fresh_wal () in
  let crashed = Driver.create_session setup ~seed:"resume-lb" in
  let wal = Round_log.create ~fsync:false wal_path in
  (try
     ignore
       (Driver.run_round_outcome crashed ~endpoint:(ep ()) ~wal
          ~crash:(Netsim.Proof, Driver.Stage_frame 2) ~updates ~behaviours ~round:1)
   with Driver.Server_crashed _ -> ());
  Round_log.close wal;
  let resumed = Driver.create_session setup ~seed:"resume-lb" in
  let records, _ = Round_log.replay wal_path in
  let got =
    agg_and_cstar
      (Driver.recover_round resumed ~endpoint:(ep ()) ~records ~updates ~behaviours ~round:1)
  in
  if got <> want then fail "loopback-backend resume differs from the uncrashed run";
  Sys.remove wal_path

(* ------------------------------------------------------------------ *)
(* duplicated agg share across a crash must not double-count *)

let test_duplicate_agg_share_no_double_count () =
  let updates = updates_for 1 in
  let behaviours = Driver.honest_all n in
  let expected = expected_sum updates (List.init n (fun i -> i + 1)) in
  (* client 3's round-3 (agg) frame is duplicated by the transport; the
     server crashes after the stage completed, so both copies are in the
     log and both replay through recovery *)
  let script = [ ((1, Netsim.Agg, 3), [ Netsim.Duplicate ]) ] in
  let net = Netsim.create ~script ~seed:"dup-agg" () in
  let session = Driver.create_session setup ~seed:"dup-agg" in
  let wal_path = fresh_wal () in
  let wal = Round_log.create ~fsync:false wal_path in
  (try
     ignore
       (Driver.run_round_outcome session ~endpoint:(Netsim.endpoint net) ~wal
          ~crash:(Netsim.Agg, Driver.Stage_end)
          ~updates ~behaviours ~round:1)
   with Driver.Server_crashed _ -> ());
  let records, _ = Round_log.replay wal_path in
  let dup_frames =
    List.length
      (List.filter
         (function Round_log.Frame { stage = Netsim.Agg; sender = 3; _ } -> true | _ -> false)
         records)
  in
  if dup_frames < 2 then fail "script should have logged the duplicated agg frame (got %d)" dup_frames;
  let outcome = Driver.recover_round ~wal session ~records ~updates ~behaviours ~round:1 in
  let agg, cstar = agg_and_cstar outcome in
  Round_log.close wal;
  Sys.remove wal_path;
  if cstar <> [] then fail "duplicated agg share must not convict anyone";
  match agg with
  | Some got when got = expected -> ()
  | Some _ -> fail "duplicated agg share was double-counted through recovery"
  | None -> fail "recovered round lost its aggregate"

(* ------------------------------------------------------------------ *)
(* torn / corrupt round-log tails *)

let test_round_log_torn_tail () =
  let wal_path = fresh_wal () in
  let wal = Round_log.create ~fsync:false wal_path in
  Round_log.append wal (Round_log.Round_start { round = 7 });
  Round_log.append wal
    (Round_log.Frame
       { round = 7; stage = Netsim.Commit; sender = 2; seq = 0; frame = Bytes.of_string "abc" });
  Round_log.append wal (Round_log.Stage_done { round = 7; stage = Netsim.Commit });
  Round_log.close wal;
  let full = (Unix.stat wal_path).Unix.st_size in
  (* chop into the final record: the first two must survive *)
  let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (full - 3);
  Unix.close fd;
  let records, status = Round_log.replay wal_path in
  (match status with
  | Store.Wal.Torn _ -> ()
  | Store.Wal.Complete -> fail "truncated final record must report Torn");
  (match records with
  | [ Round_log.Round_start { round = 7 }; Round_log.Frame { sender = 2; _ } ] -> ()
  | _ -> fail "truncation must keep exactly the intact prefix (got %d records)" (List.length records));
  Sys.remove wal_path

let test_round_log_bad_record_body () =
  (* a CRC-clean frame whose body is not a valid record terminates the
     replay like a torn tail instead of raising *)
  let wal_path = fresh_wal () in
  let wal = Store.Wal.open_ ~fsync:false wal_path in
  Store.Wal.append wal ~tag:1 (let b = Serial.W.create () in Serial.W.u32 b 3; Buffer.to_bytes b);
  Store.Wal.append wal ~tag:99 (Bytes.of_string "not-a-record");
  Store.Wal.close wal;
  let records, status = Round_log.replay wal_path in
  (match status with
  | Store.Wal.Torn _ -> ()
  | Store.Wal.Complete -> fail "unknown record tag must terminate the replay as Torn");
  (match records with
  | [ Round_log.Round_start { round = 3 } ] -> ()
  | _ -> fail "the valid prefix must survive a corrupt record body");
  Sys.remove wal_path

(* the one "unsealed round" rule: the last Round_start with no Round_end
   after it *)
let test_pending_round () =
  let start r = Round_log.Round_start { round = r } in
  let sealed r = Round_log.Round_end { round = r; cstar = []; aggregate = None } in
  let check name want records =
    Alcotest.(check (option int)) name want (Round_log.pending_round records)
  in
  check "empty log" None [];
  check "open round" (Some 1) [ start 1; Round_log.Check { round = 1; s = Bytes.empty } ];
  check "sealed round" None [ start 1; sealed 1 ];
  check "second round open" (Some 2) [ start 1; sealed 1; start 2 ];
  check "every round sealed" None [ start 1; sealed 1; start 2; sealed 2 ];
  check "an older seal does not close a newer round" (Some 2) [ start 1; start 2; sealed 1 ];
  (* where a continuing process starts: the open round, else the next *)
  let resumes name want records =
    Alcotest.(check int) name want (Round_log.resume_point records)
  in
  resumes "empty log resumes at 1" 1 [];
  resumes "open first round" 1 [ start 1 ];
  resumes "open round" 2 [ start 1; sealed 1; start 2 ];
  resumes "every round sealed" 3 [ start 1; sealed 1; start 2; sealed 2 ]

(* ------------------------------------------------------------------ *)
(* multi-round sessions *)

let test_session_carries_cstar () =
  (* client 5 falsely flags honest client 1: the revealed share verifies,
     so the flagger is convicted in round 1 and must start round 2 banned *)
  let behaviours = Driver.honest_all n in
  behaviours.(4) <- Driver.False_flags [ 1; 2; 3 ];
  let session = Driver.create_session setup ~seed:"carry" in
  let report =
    Driver.run_session session ~serialize:true ~updates_for ~behaviours ~rounds:2
  in
  if report.Driver.rounds_completed <> 2 then
    fail "both rounds should complete (quorum 3 of 5 holds)";
  if report.Driver.final_banned <> [ 5 ] then
    fail "client 5 must be banned after its round-1 conviction";
  (match report.Driver.round_outcomes with
  | [ (1, o1); (2, o2) ] ->
      let agg1, c1 = agg_and_cstar o1 in
      let agg2, c2 = agg_and_cstar o2 in
      if c1 <> [ 5 ] then fail "round 1 must convict client 5";
      if c2 <> [ 5 ] then fail "round 2 C* must carry the ban";
      let honest = [ 1; 2; 3; 4 ] in
      if agg1 <> Some (expected_sum (updates_for 1) honest) then
        fail "round 1 aggregate must exclude the convicted client";
      if agg2 <> Some (expected_sum (updates_for 2) honest) then
        fail "round 2 aggregate must exclude the banned client"
  | _ -> fail "expected two round outcomes")

let test_session_recovers_mid_run () =
  (* same two-round session, server killed inside round 2: the loop must
     replay the WAL, finish the round and match the uncrashed twin *)
  let behaviours = Driver.honest_all n in
  behaviours.(4) <- Driver.False_flags [ 1; 2; 3 ];
  let twin = Driver.create_session setup ~seed:"mid-run" in
  let want = Driver.run_session twin ~serialize:true ~updates_for ~behaviours ~rounds:2 in
  let wal_path = fresh_wal () in
  let wal = Round_log.create ~fsync:false wal_path in
  let session = Driver.create_session setup ~seed:"mid-run" in
  let report =
    Driver.run_session session ~wal ~crash:(2, Netsim.Proof, Driver.Stage_start) ~updates_for
      ~behaviours ~rounds:2
  in
  Round_log.close wal;
  Sys.remove wal_path;
  if report.Driver.crashes_recovered <> 1 then fail "the round-2 crash must be recovered in-loop";
  if report.Driver.rounds_completed <> 2 then fail "recovered session must complete both rounds";
  let pairs = List.combine want.Driver.round_outcomes report.Driver.round_outcomes in
  List.iter
    (fun ((r, a), (_, b)) ->
      if agg_and_cstar a <> agg_and_cstar b then
        fail "round %d differs between the crashed-and-recovered and uncrashed sessions" r)
    pairs;
  if want.Driver.final_banned <> report.Driver.final_banned then
    fail "final ban list differs after recovery"

(* the logged check strings, by round *)
let logged_checks path =
  List.filter_map
    (function Round_log.Check { round; s } -> Some (round, s) | _ -> None)
    (fst (Round_log.replay path))

let hex b =
  String.concat ""
    (List.init (min 4 (Bytes.length b)) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* an uncrashed [rounds]-round session on its own log: its report and
   its check strings *)
let uncrashed ~seed ~behaviours ~rounds =
  let path = fresh_wal () in
  let wal = Round_log.create ~fsync:false path in
  let report =
    Driver.run_session (Driver.create_session setup ~seed) ~wal ~updates_for ~behaviours ~rounds
  in
  Round_log.close wal;
  let checks = logged_checks path in
  Sys.remove path;
  (report, checks)

(* killed between Round_start 3 and its Snapshot: recovery must start
   from round 2's snapshot plus round 2's replayed draw, not redraw round
   2's check string *)
let test_torn_snapshot () =
  let behaviours = Driver.honest_all n in
  let want, want_checks = uncrashed ~seed:"torn-snapshot" ~behaviours ~rounds:3 in
  let path = fresh_wal () in
  let wal = Round_log.create ~fsync:false path in
  let session = Driver.create_session setup ~seed:"torn-snapshot" in
  ignore (Driver.run_session session ~wal ~updates_for ~behaviours ~rounds:2);
  Round_log.append wal (Round_log.Round_start { round = 3 });
  let records, _ = Round_log.replay path in
  let outcome =
    Driver.recover_round ~wal session ~records ~updates:(updates_for 3) ~behaviours ~round:3
  in
  Round_log.close wal;
  let got_checks = logged_checks path in
  Sys.remove path;
  let s3 = List.assoc 3 got_checks in
  if not (Bytes.equal s3 (List.assoc 3 want_checks)) then
    fail "round 3 drew s = %s, the uncrashed run drew %s (round 2's was %s)" (hex s3)
      (hex (List.assoc 3 want_checks))
      (hex (List.assoc 2 want_checks));
  if agg_and_cstar outcome <> agg_and_cstar (List.assoc 3 want.Driver.round_outcomes) then
    fail "recovered round 3 differs from the uncrashed run"

(* a session continued from a log whose last round is sealed: the second
   call covers only round 3, on a server restored to round 3's boundary —
   same s, aggregate and C*, and the round-1 convict still banned *)
let test_boundary_restart () =
  let behaviours = Driver.honest_all n in
  behaviours.(4) <- Driver.False_flags [ 1; 2; 3 ];
  let want, want_checks = uncrashed ~seed:"boundary" ~behaviours ~rounds:3 in
  let path = fresh_wal () in
  let wal = Round_log.create ~fsync:false path in
  let session = Driver.create_session setup ~seed:"boundary" in
  let first = Driver.run_session session ~wal ~updates_for ~behaviours ~rounds:2 in
  let second = Driver.run_session session ~wal ~updates_for ~behaviours ~rounds:3 in
  Round_log.close wal;
  let got_checks = logged_checks path in
  Sys.remove path;
  if first.Driver.resumed_round <> None then fail "an empty log must start fresh";
  if second.Driver.resumed_round <> Some 3 then fail "the second call must resume at round 3";
  (match second.Driver.round_outcomes with
  | [ (3, o) ] ->
      if agg_and_cstar o <> agg_and_cstar (List.assoc 3 want.Driver.round_outcomes) then
        fail "round 3 after the split differs from the uncrashed run";
      if snd (agg_and_cstar o) <> [ 5 ] then fail "the round-1 convict must stay banned in round 3"
  | _ -> fail "the second call must cover round 3 only");
  if not (Bytes.equal (List.assoc 3 got_checks) (List.assoc 3 want_checks)) then
    fail "round 3 drew a different check string after the split";
  if second.Driver.final_banned <> [ 5 ] || want.Driver.final_banned <> [ 5 ] then
    fail "client 5 must end banned on both sides of the split"

(* fresh in-process clients restart at genesis: a fresh session may
   resume only the log's first round *)
let test_resume_guard () =
  let behaviours = Driver.honest_all n in
  let path = fresh_wal () in
  let wal = Round_log.create ~fsync:false path in
  ignore
    (Driver.run_session (Driver.create_session setup ~seed:"guard") ~wal ~updates_for ~behaviours
       ~rounds:1);
  let fresh = Driver.create_session setup ~seed:"guard" in
  let raised =
    match Driver.run_session fresh ~wal ~updates_for ~behaviours ~rounds:2 with
    | _ -> None
    | exception Invalid_argument msg -> Some msg
  in
  Round_log.close wal;
  Sys.remove path;
  Alcotest.(check (option string))
    "a fresh in-process session refuses to resume at round 2"
    (Some
       "Driver.run_session: the log resumes at round 2, but this session's own clients are at \
        round 1")
    raised

(* the cross-process flow: round 1 killed and left open, then a fresh
   session runs the whole session on the same log — it finishes round 1
   from the log and continues, matching the uncrashed run *)
let test_resume_open_round_on_entry () =
  let behaviours = Driver.honest_all n in
  behaviours.(4) <- Driver.False_flags [ 1; 2; 3 ];
  let want, _ = uncrashed ~seed:"entry" ~behaviours ~rounds:2 in
  let path = fresh_wal () in
  let wal = Round_log.create ~fsync:false path in
  (try
     ignore
       (Driver.run_round_outcome (Driver.create_session setup ~seed:"entry") ~wal
          ~crash:(Netsim.Proof, Driver.Stage_frame 2) ~updates:(updates_for 1) ~behaviours
          ~round:1)
   with Driver.Server_crashed _ -> ());
  Round_log.close wal;
  let wal = Round_log.create ~fsync:false path in
  let got =
    Driver.run_session (Driver.create_session setup ~seed:"entry") ~wal ~updates_for ~behaviours
      ~rounds:2
  in
  Round_log.close wal;
  Sys.remove path;
  if got.Driver.resumed_round <> Some 1 then fail "the open round 1 must be resumed on entry";
  if
    List.map (fun (r, o) -> (r, agg_and_cstar o)) got.Driver.round_outcomes
    <> List.map (fun (r, o) -> (r, agg_and_cstar o)) want.Driver.round_outcomes
  then fail "the resumed session differs from the uncrashed run";
  if got.Driver.final_banned <> want.Driver.final_banned then fail "final bans differ"

(* without a WAL the loop cannot recover: the planned crash escapes
   with its own point *)
let test_session_crash_without_wal () =
  match
    Driver.run_session (Driver.create_session setup ~seed:"no-wal-session") ~serialize:true
      ~crash:(1, Netsim.Flag, Driver.Stage_end) ~updates_for ~behaviours:(Driver.honest_all n)
      ~rounds:1
  with
  | exception Driver.Server_crashed { stage = Netsim.Flag; at = Driver.Stage_end } -> ()
  | exception Driver.Server_crashed { stage; at } ->
      fail "the crash escaped as %s" (Driver.crash_to_string (stage, at))
  | _ -> fail "the planned crash must raise Server_crashed"

(* crashing without a WAL armed is not recoverable: the exception
   must propagate (there is nothing to replay) *)
let test_crash_without_wal_raises () =
  let session = Driver.create_session setup ~seed:"no-wal" in
  match
    Driver.run_round_outcome session ~serialize:true ~crash:(Netsim.Flag, Driver.Stage_start)
      ~updates:(updates_for 1) ~behaviours:(Driver.honest_all n) ~round:1
  with
  | exception Driver.Server_crashed { stage = Netsim.Flag; at = Driver.Stage_start } -> ()
  | exception Driver.Server_crashed _ -> fail "crashed at the wrong point"
  | _ -> fail "the planned crash must raise Server_crashed"

let () =
  Parallel.set_default_jobs 2;
  Alcotest.run "recovery"
    [
      ( "round-log",
        [
          Alcotest.test_case "torn tail" `Quick test_round_log_torn_tail;
          Alcotest.test_case "corrupt record body" `Quick test_round_log_bad_record_body;
          Alcotest.test_case "pending round" `Quick test_pending_round;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "differential sweep" `Slow test_crash_sweep;
          Alcotest.test_case "unfired crash plan" `Quick test_crash_point_not_reached;
          Alcotest.test_case "fresh-session resume" `Quick test_fresh_session_resume;
          Alcotest.test_case "fresh-session resume (loopback)" `Quick
            test_fresh_session_resume_loopback;
          Alcotest.test_case "crash without WAL raises" `Quick test_crash_without_wal_raises;
          Alcotest.test_case "duplicate agg share" `Quick test_duplicate_agg_share_no_double_count;
        ] );
      ( "session",
        [
          Alcotest.test_case "C* carries across rounds" `Quick test_session_carries_cstar;
          Alcotest.test_case "mid-session recovery" `Quick test_session_recovers_mid_run;
          Alcotest.test_case "torn snapshot" `Quick test_torn_snapshot;
          Alcotest.test_case "boundary restart" `Quick test_boundary_restart;
          Alcotest.test_case "fresh-session resume guard" `Quick test_resume_guard;
          Alcotest.test_case "resume an open round on entry" `Quick
            test_resume_open_round_on_entry;
          Alcotest.test_case "crash without WAL keeps its point" `Quick
            test_session_crash_without_wal;
        ] );
    ]
