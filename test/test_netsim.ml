(* Netsim transport unit tests plus the quorum dropout ladder: with n = 5
   clients and m = 2 (Shamir threshold t = 3), scripted Drop faults knock
   out 0, 1 or 2 clients at each protocol stage and the round must still
   complete with the correct aggregate; 3 dropouts at any stage must end
   the round with Aborted_insufficient_quorum — never an exception. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver

let fail fmt = Alcotest.failf fmt

(* ------------------------------------------------------------------ *)
(* transport unit tests *)
(* ------------------------------------------------------------------ *)

let frame tag len = Bytes.init len (fun i -> Char.chr ((tag + (i * 7)) land 0xff))

let run_schedule net ~rounds ~senders =
  (* a fixed traffic pattern; returns the full delivery trace *)
  let trace = ref [] in
  for r = 1 to rounds do
    List.iter
      (fun stage ->
        Netsim.begin_stage net ~round:r ~stage;
        List.iter (fun s -> Netsim.send net ~sender:s (frame ((r * 16) + s) 48)) senders;
        trace := Netsim.deliver net :: !trace)
      [ Netsim.Commit; Netsim.Flag; Netsim.Proof; Netsim.Agg ]
  done;
  List.rev !trace

let test_seed_reproducible () =
  let mk () = Netsim.create ~plan:(Netsim.uniform 0.3) ~seed:"repro" () in
  let t1 = run_schedule (mk ()) ~rounds:3 ~senders:[ 1; 2; 3; 4 ] in
  let t2 = run_schedule (mk ()) ~rounds:3 ~senders:[ 1; 2; 3; 4 ] in
  if t1 <> t2 then fail "same seed must give an identical fault schedule";
  let t3 =
    run_schedule (Netsim.create ~plan:(Netsim.uniform 0.3) ~seed:"other" ()) ~rounds:3
      ~senders:[ 1; 2; 3; 4 ]
  in
  if t1 = t3 then fail "different seeds gave an identical 48-frame schedule"

let test_send_order_irrelevant () =
  (* the fault drawn for (round, stage, sender) must not depend on the
     order in which the senders happened to call send *)
  let mk order =
    let net = Netsim.create ~plan:(Netsim.uniform 0.4) ~seed:"order" () in
    Netsim.begin_stage net ~round:1 ~stage:Netsim.Commit;
    List.iter (fun s -> Netsim.send net ~sender:s (frame s 40)) order;
    List.sort compare (Netsim.deliver net)
  in
  if mk [ 1; 2; 3; 4; 5 ] <> mk [ 5; 3; 1; 4; 2 ] then
    fail "fault schedule depended on send order"

let test_plan_parser () =
  (match
     Netsim.plan_of_string
       "drop=0.25,flip=0.5,delay=0.5:3,dup=0.125,trunc=0.25,reorder=0.1,replay=0.05"
   with
  | Error e -> fail "parse failed: %s" e
  | Ok p ->
      Alcotest.(check (float 1e-9)) "drop" 0.25 p.Netsim.p_drop;
      Alcotest.(check (float 1e-9)) "flip" 0.5 p.Netsim.p_flip;
      Alcotest.(check (float 1e-9)) "delay" 0.5 p.Netsim.p_delay;
      Alcotest.(check int) "max_delay" 3 p.Netsim.max_delay;
      Alcotest.(check (float 1e-9)) "dup" 0.125 p.Netsim.p_duplicate;
      Alcotest.(check (float 1e-9)) "trunc" 0.25 p.Netsim.p_truncate;
      Alcotest.(check (float 1e-9)) "reorder" 0.1 p.Netsim.p_reorder;
      Alcotest.(check (float 1e-9)) "replay" 0.05 p.Netsim.p_replay;
      (* round-trip through plan_to_string *)
      (match Netsim.plan_of_string (Netsim.plan_to_string p) with
      | Ok p' when p' = p -> ()
      | Ok _ -> fail "plan_to_string round-trip changed the plan"
      | Error e -> fail "plan_to_string round-trip failed: %s" e));
  (match Netsim.plan_of_string "bogus=0.1" with
  | Ok _ -> fail "unknown key must be rejected"
  | Error _ -> ());
  (match Netsim.plan_of_string "drop=banana" with
  | Ok _ -> fail "bad float must be rejected"
  | Error _ -> ());
  (match Netsim.plan_of_string "drop=1.5" with
  | Ok _ -> fail "probability > 1 must be rejected"
  | Error _ -> ());
  match Netsim.plan_of_string "" with
  | Ok p when p = Netsim.ideal -> ()
  | _ -> fail "empty spec must parse to the ideal plan"

let scripted script = Netsim.create ~script ~seed:"scripted" ()

let test_scripted_faults () =
  let f = frame 7 64 in
  (* Drop: nothing delivered *)
  let net = scripted [ ((1, Netsim.Commit, 1), [ Netsim.Drop ]) ] in
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Commit;
  Netsim.send net ~sender:1 f;
  Netsim.send net ~sender:2 f;
  (match Netsim.deliver net with
  | [ (2, f') ] when Bytes.equal f' f -> ()
  | d -> fail "drop: expected only sender 2, got %d frames" (List.length d));
  Alcotest.(check int) "dropped counter" 1 (Netsim.counters net).Netsim.dropped;
  (* Truncate_at *)
  let net = scripted [ ((1, Netsim.Flag, 1), [ Netsim.Truncate_at 5 ]) ] in
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Flag;
  Netsim.send net ~sender:1 f;
  (match Netsim.deliver net with
  | [ (1, f') ] ->
      Alcotest.(check int) "truncated length" 5 (Bytes.length f');
      if not (Bytes.equal f' (Bytes.sub f 0 5)) then fail "truncation kept wrong bytes"
  | _ -> fail "truncate: expected one frame");
  Alcotest.(check int) "mutated counter" 1 (Netsim.counters net).Netsim.mutated;
  (* Flip_bytes: same length, different bytes *)
  let net = scripted [ ((1, Netsim.Proof, 1), [ Netsim.Flip_bytes 3 ]) ] in
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Proof;
  Netsim.send net ~sender:1 f;
  (match Netsim.deliver net with
  | [ (1, f') ] ->
      Alcotest.(check int) "flipped length" (Bytes.length f) (Bytes.length f');
      if Bytes.equal f' f then fail "flip left the frame unchanged"
  | _ -> fail "flip: expected one frame");
  (* Duplicate: two copies *)
  let net = scripted [ ((1, Netsim.Agg, 1), [ Netsim.Duplicate ]) ] in
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Agg;
  Netsim.send net ~sender:1 f;
  (match Netsim.deliver net with
  | [ (1, a); (1, b) ] when Bytes.equal a f && Bytes.equal b f -> ()
  | d -> fail "duplicate: expected two identical frames, got %d" (List.length d));
  Alcotest.(check int) "duplicated counter" 1 (Netsim.counters net).Netsim.duplicated

let test_delay_and_deadline () =
  let f = frame 3 32 in
  let net =
    Netsim.create ~deadline:4
      ~script:
        [
          ((1, Netsim.Commit, 1), [ Netsim.Delay 10 ]);
          ((1, Netsim.Commit, 2), [ Netsim.Delay 2 ]);
        ]
      ~seed:"delay" ()
  in
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Commit;
  Netsim.send net ~sender:1 f;
  Netsim.send net ~sender:2 f;
  Netsim.send net ~sender:3 f;
  (match List.map fst (Netsim.deliver net) with
  | [ 3; 2 ] -> () (* tick 0 before tick 2; sender 1 is past the deadline *)
  | l ->
      fail "deadline: expected senders [3;2], got %s"
        (String.concat ";" (List.map string_of_int l)));
  Alcotest.(check int) "late counter" 1 (Netsim.counters net).Netsim.late;
  (* a wider deadline at deliver time rescues the slow frame *)
  let net2 =
    Netsim.create ~script:[ ((1, Netsim.Commit, 1), [ Netsim.Delay 10 ]) ] ~seed:"delay2" ()
  in
  Netsim.begin_stage net2 ~round:1 ~stage:Netsim.Commit;
  Netsim.send net2 ~sender:1 f;
  match Netsim.deliver ~deadline:10 net2 with
  | [ (1, _) ] -> ()
  | _ -> fail "explicit deadline=10 should deliver the delayed frame"

let test_reorder () =
  let net = Netsim.create ~script:[ ((1, Netsim.Commit, 1), [ Netsim.Reorder ]) ] ~seed:"ro" () in
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Commit;
  Netsim.send net ~sender:1 (frame 1 16);
  Netsim.send net ~sender:2 (frame 2 16);
  Netsim.send net ~sender:3 (frame 3 16);
  (match List.map fst (Netsim.deliver net) with
  | [ 2; 3; 1 ] -> ()
  | l ->
      fail "reorder: expected [2;3;1], got %s" (String.concat ";" (List.map string_of_int l)));
  Alcotest.(check int) "reordered counter" 1 (Netsim.counters net).Netsim.reordered

let test_replay () =
  let a = frame 1 40 and b = frame 9 40 in
  let net =
    Netsim.create ~script:[ ((2, Netsim.Commit, 1), [ Netsim.Replay_previous ]) ] ~seed:"rp" ()
  in
  (* round 1: the link records its frame *)
  Netsim.begin_stage net ~round:1 ~stage:Netsim.Commit;
  Netsim.send net ~sender:1 a;
  (match Netsim.deliver net with
  | [ (1, f) ] when Bytes.equal f a -> ()
  | _ -> fail "round 1 should deliver the original frame");
  (* round 2: the replay substitutes round 1's frame *)
  Netsim.begin_stage net ~round:2 ~stage:Netsim.Commit;
  Netsim.send net ~sender:1 b;
  (match Netsim.deliver net with
  | [ (1, f) ] when Bytes.equal f a -> ()
  | [ (1, _) ] -> fail "replay should have substituted the round-1 frame"
  | _ -> fail "round 2 should deliver exactly one frame");
  Alcotest.(check int) "replayed counter" 1 (Netsim.counters net).Netsim.replayed;
  (* replay with no history is a no-op *)
  let net2 =
    Netsim.create ~script:[ ((1, Netsim.Commit, 1), [ Netsim.Replay_previous ]) ] ~seed:"rp2" ()
  in
  Netsim.begin_stage net2 ~round:1 ~stage:Netsim.Commit;
  Netsim.send net2 ~sender:1 b;
  match Netsim.deliver net2 with
  | [ (1, f) ] when Bytes.equal f b -> ()
  | _ -> fail "replay without history must deliver the frame unchanged"

let test_counters_conserved () =
  (* every sent frame is accounted for: delivered + dropped + late
     (duplicates add deliveries, so count them on the left) *)
  let net = Netsim.create ~plan:(Netsim.uniform ~max_delay:8 0.35) ~seed:"acct" () in
  for r = 1 to 5 do
    List.iter
      (fun stage ->
        Netsim.begin_stage net ~round:r ~stage;
        for s = 1 to 6 do
          Netsim.send net ~sender:s (frame s 64)
        done;
        ignore (Netsim.deliver net))
      [ Netsim.Commit; Netsim.Flag; Netsim.Proof; Netsim.Agg ]
  done;
  let c = Netsim.counters net in
  Alcotest.(check int) "sent" (5 * 4 * 6) c.Netsim.sent;
  Alcotest.(check int) "conservation"
    (c.Netsim.sent + c.Netsim.duplicated)
    (c.Netsim.delivered + c.Netsim.dropped + c.Netsim.late)

(* ------------------------------------------------------------------ *)
(* dropout ladder *)
(* ------------------------------------------------------------------ *)

let n = 5
let m = 2 (* Shamir threshold t = m + 1 = 3 *)

let params =
  Params.make ~n_clients:n ~max_malicious:m ~d:8 ~k:4 ~m_factor:64.0 ~bound_b:1000.0 ()

let setup = Setup.create ~label:"test-netsim" params
let session = Driver.create_session setup ~seed:"netsim-ladder"

let updates =
  Array.init n (fun i -> Array.init 8 (fun l -> ((i * 31) + (l * 7) + 3) mod 200 - 100))

let sum_updates idxs =
  Array.init 8 (fun l -> List.fold_left (fun acc i -> acc + updates.(i - 1).(l)) 0 idxs)

let round_counter = ref 0

let run_with_drops ~stage ~drops =
  incr round_counter;
  let round = !round_counter in
  let script = List.map (fun c -> ((round, stage, c), [ Netsim.Drop ])) drops in
  let net = Netsim.create ~script ~seed:"ladder" () in
  Driver.run_round_outcome session ~endpoint:(Netsim.endpoint net) ~updates
    ~behaviours:(Driver.honest_all n) ~round

(* the same ladder step through the backend-agnostic endpoint seam: any
   Transport_intf.S backend (Netsim itself, the socketpair loopback, ...)
   must produce the identical verdicts *)
let run_with_drops_on (module B : Netsim.Transport_intf.S) ~stage ~drops =
  incr round_counter;
  let round = !round_counter in
  let script = List.map (fun c -> ((round, stage, c), [ Netsim.Drop ])) drops in
  let ep = B.endpoint (B.create ~script ~seed:"ladder" ()) in
  Driver.run_round_outcome session ~endpoint:ep ~updates ~behaviours:(Driver.honest_all n)
    ~round

let all_ids = List.init n (fun i -> i + 1)

let check_completed ~stage ~drops outcome =
  match outcome with
  | Driver.Completed stats ->
      let survivors = List.filter (fun i -> not (List.mem i drops)) all_ids in
      (* dropouts before the aggregation stage land in C* and their updates
         are excluded; aggregation-stage dropouts stay honest (their updates
         are included) and only cost the server their share *)
      let expected_flagged, expected_agg =
        if stage = Netsim.Agg then ([], sum_updates all_ids)
        else (drops, sum_updates survivors)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s/%d flagged" (Netsim.stage_to_string stage) (List.length drops))
        expected_flagged
        (List.sort compare stats.Driver.flagged);
      (match stats.Driver.aggregate with
      | None ->
          fail "%s/%d drops: aggregation failed: %s" (Netsim.stage_to_string stage)
            (List.length drops)
            (match stats.Driver.failure with
            | Some e -> Risefl_core.Server.agg_error_to_string e
            | None -> "?")
      | Some agg ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s/%d aggregate" (Netsim.stage_to_string stage) (List.length drops))
            expected_agg agg)
  | o ->
      fail "%s with %d drops should complete, got: %s" (Netsim.stage_to_string stage)
        (List.length drops) (Driver.outcome_to_string o)

let test_ladder_stage stage () =
  for k = 0 to n - (m + 1) - 1 do
    (* 0 and 1 dropouts always complete; k = n - t = 2 is the edge *)
    let drops = List.filteri (fun i _ -> i < k) all_ids in
    check_completed ~stage ~drops (run_with_drops ~stage ~drops)
  done;
  (* exactly t = 3 survivors: the round must still complete *)
  let drops = [ 1; 2 ] in
  check_completed ~stage ~drops (run_with_drops ~stage ~drops);
  (* n - t + 1 = 3 dropouts: quorum lost, typed verdict, no exception *)
  let drops = [ 1; 2; 3 ] in
  match run_with_drops ~stage ~drops with
  | Driver.Aborted_insufficient_quorum { survivors; needed; _ } ->
      Alcotest.(check int) "needed = t" (m + 1) needed;
      if survivors >= needed then fail "abort with %d survivors >= %d" survivors needed
  | o ->
      fail "%s with 3 drops should abort on quorum, got: %s" (Netsim.stage_to_string stage)
        (Driver.outcome_to_string o)

(* one completion at the quorum edge and one quorum abort, through any
   Transport_intf.S backend: the seeded fault schedule (and therefore the
   verdict) must not depend on which backend carried the bytes *)
let test_backend_ladder (module B : Netsim.Transport_intf.S) () =
  let stage = Netsim.Flag in
  let drops = [ 1; 2 ] in
  check_completed ~stage ~drops (run_with_drops_on (module B) ~stage ~drops);
  match run_with_drops_on (module B) ~stage ~drops:[ 1; 2; 3 ] with
  | Driver.Aborted_insufficient_quorum { survivors; needed; _ } ->
      Alcotest.(check int) "needed = t" (m + 1) needed;
      if survivors >= needed then fail "abort with %d survivors >= %d" survivors needed
  | o -> fail "3 drops should abort on quorum, got: %s" (Driver.outcome_to_string o)

(* Dropouts after the flags are processed (proof and aggregation stages)
   must behave exactly like earlier ones — covered by the ladder above,
   plus this mixed case: one client drops at proof, one at aggregation. *)
let test_mixed_late_dropouts () =
  incr round_counter;
  let round = !round_counter in
  let net =
    Netsim.create
      ~script:
        [ ((round, Netsim.Proof, 2), [ Netsim.Drop ]); ((round, Netsim.Agg, 4), [ Netsim.Drop ]) ]
      ~seed:"mixed" ()
  in
  match
    Driver.run_round_outcome session ~endpoint:(Netsim.endpoint net) ~updates
      ~behaviours:(Driver.honest_all n) ~round
  with
  | Driver.Completed stats ->
      Alcotest.(check (list int))
        "flagged = proof dropout" [ 2 ]
        (List.sort compare stats.Driver.flagged);
      (match stats.Driver.aggregate with
      | Some agg ->
          (* client 2 (proof dropout) excluded; client 4 (agg dropout) included *)
          Alcotest.(check (array int)) "aggregate" (sum_updates [ 1; 3; 4; 5 ]) agg
      | None -> fail "mixed dropouts: aggregation failed")
  | o -> fail "mixed dropouts should complete, got: %s" (Driver.outcome_to_string o)

(* quorum lost at the aggregation stage itself: three agg frames dropped
   leave two valid shares, and the round ends with the typed verdict *)
let test_agg_quorum_abort () =
  incr round_counter;
  let round = !round_counter in
  let script = List.map (fun c -> ((round, Netsim.Agg, c), [ Netsim.Drop ])) [ 1; 2; 3 ] in
  let net = Netsim.create ~script ~seed:"agg-quorum" () in
  match
    Driver.run_round_outcome session ~endpoint:(Netsim.endpoint net) ~updates
      ~behaviours:(Driver.honest_all n) ~round
  with
  | Driver.Aborted_insufficient_quorum { stage = "aggregate"; survivors = 2; needed = 3 } -> ()
  | o -> fail "expected an aggregate-stage quorum abort (2 < 3), got: %s"
           (Driver.outcome_to_string o)

(* ------------------------------------------------------------------ *)
(* retransmitting transport *)
(* ------------------------------------------------------------------ *)

module Reliable = Risefl_core.Reliable

(* at a 50% per-frame drop rate the bare transport loses its quorum, but
   the ack/retransmission layer (exponential backoff, receive-side dedup)
   still completes the n=5, m=2 round *)
let test_retransmit_survives_drops () =
  let plan = { Netsim.ideal with Netsim.p_drop = 0.5 } in
  (* bare transport: the same seeded fault schedule aborts the round *)
  incr round_counter;
  let round_plain = !round_counter in
  let plain =
    Driver.run_round_outcome session
      ~endpoint:(Netsim.endpoint (Netsim.create ~plan ~seed:"retransmit-ladder" ()))
      ~updates ~behaviours:(Driver.honest_all n) ~round:round_plain
  in
  (match plain with
  | Driver.Completed _ ->
      fail "drop=0.5 should abort the bare transport (fault seed no longer adversarial?)"
  | Driver.Aborted_insufficient_quorum _ | Driver.Aborted_decode _ -> ());
  (* retransmitting transport over the identical plan: completes *)
  incr round_counter;
  let round = !round_counter in
  let net = Netsim.create ~plan ~seed:"retransmit-ladder" () in
  let rel = Reliable.create_ep ~max_attempts:8 (Netsim.endpoint net) in
  (match
     Driver.run_round_outcome session ~reliable:rel ~updates ~behaviours:(Driver.honest_all n)
       ~round
   with
  | Driver.Completed stats ->
      if stats.Driver.aggregate = None then fail "retransmitting round lost its aggregate";
      if stats.Driver.decode_failures <> [] then
        fail "line loss must not read as sender malice under retransmission"
  | o ->
      fail "retransmitting transport should survive drop=0.5, got: %s"
        (Driver.outcome_to_string o));
  let rc = Reliable.counters rel in
  if rc.Reliable.retransmits = 0 then fail "a 50%% drop plan must force retransmissions";
  if rc.Reliable.recovered = 0 then fail "some frame should be recovered by a retry";
  (* accounting: every physical send is a first attempt or a retransmit *)
  Alcotest.(check int) "attempts = logical + retransmits"
    (rc.Reliable.logical + rc.Reliable.retransmits)
    rc.Reliable.attempts;
  (* the conservation law of the underlying transport still holds with
     retransmissions in flight (retransmits enter through [sent]) *)
  let c = Netsim.counters net in
  Alcotest.(check int) "netsim conservation under retransmission"
    (c.Netsim.sent + c.Netsim.duplicated)
    (c.Netsim.delivered + c.Netsim.dropped + c.Netsim.late);
  Alcotest.(check int) "retransmit counters agree" rc.Reliable.retransmits c.Netsim.retransmitted;
  Alcotest.(check int) "recovered counters agree" rc.Reliable.recovered c.Netsim.recovered

(* a cross-round replay (the link re-injects last round's frame) is
   rejected idempotently by the frame header check: the stale commit can
   never be double-processed into the new round *)
let test_reliable_rejects_cross_round_replay () =
  incr round_counter;
  let r1 = !round_counter in
  incr round_counter;
  let r2 = !round_counter in
  let script = [ ((r2, Netsim.Commit, 2), [ Netsim.Replay_previous ]) ] in
  let net = Netsim.create ~script ~seed:"rel-replay" () in
  let rel = Reliable.create_ep (Netsim.endpoint net) in
  let run round =
    Driver.run_round_outcome session ~reliable:rel ~updates ~behaviours:(Driver.honest_all n)
      ~round
  in
  (match run r1 with
  | Driver.Completed stats when stats.Driver.flagged = [] -> ()
  | o -> fail "clean reliable round should complete, got %s" (Driver.outcome_to_string o));
  (* round r2: client 2's commit link substitutes the link's previous
     frame on every attempt. Attempt 0 therefore delivers the stale
     round-r1 frame — rejected by the header check, never processed into
     round r2 — and the retransmission (whose "previous" is now the fresh
     r2 frame) recovers the client: nobody is convicted, nothing is
     double-counted *)
  (match run r2 with
  | Driver.Completed stats ->
      Alcotest.(check (list int)) "stale frame rejected without conviction" []
        (List.sort compare stats.Driver.flagged);
      if stats.Driver.decode_failures <> [] then
        fail "a replayed frame must not read as an undecodable one";
      (match stats.Driver.aggregate with
      | Some agg ->
          Alcotest.(check (array int)) "stale commit not smuggled into the round"
            (sum_updates all_ids) agg
      | None -> fail "round with one replayed link should still aggregate")
  | o -> fail "replayed link should not abort the round, got %s" (Driver.outcome_to_string o));
  let rc = Reliable.counters rel in
  if rc.Reliable.rejected = 0 then fail "the stale frame must be counted as rejected";
  if rc.Reliable.recovered = 0 then fail "the retransmission must recover the replayed link"

let () =
  Alcotest.run "netsim"
    [
      ( "transport",
        [
          Alcotest.test_case "seed reproducibility" `Quick test_seed_reproducible;
          Alcotest.test_case "send-order independence" `Quick test_send_order_irrelevant;
          Alcotest.test_case "plan parser" `Quick test_plan_parser;
          Alcotest.test_case "scripted faults" `Quick test_scripted_faults;
          Alcotest.test_case "delay vs deadline" `Quick test_delay_and_deadline;
          Alcotest.test_case "reorder" `Quick test_reorder;
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "counters conserved" `Quick test_counters_conserved;
        ] );
      ( "dropout-ladder",
        [
          Alcotest.test_case "commit stage" `Quick (test_ladder_stage Netsim.Commit);
          Alcotest.test_case "flag stage" `Quick (test_ladder_stage Netsim.Flag);
          Alcotest.test_case "proof stage" `Quick (test_ladder_stage Netsim.Proof);
          Alcotest.test_case "agg stage" `Quick (test_ladder_stage Netsim.Agg);
          Alcotest.test_case "mixed late dropouts" `Quick test_mixed_late_dropouts;
          Alcotest.test_case "aggregate-stage quorum abort" `Quick test_agg_quorum_abort;
        ] );
      ( "backends",
        [
          Alcotest.test_case "netsim endpoint" `Quick (test_backend_ladder (module Netsim));
          Alcotest.test_case "socketpair loopback" `Quick
            (test_backend_ladder (module Risefl_transport.Loopback));
        ] );
      ( "retransmission",
        [
          Alcotest.test_case "survives drop=0.5" `Quick test_retransmit_survives_drops;
          Alcotest.test_case "cross-round replay rejected" `Quick
            test_reliable_rejects_cross_round_replay;
        ] );
    ]
