(* Telemetry subsystem tests: the operation counters are an *invariant*
   of the protocol, not of its schedule — the same round must report the
   same counts at any job count; disabling telemetry must make every
   call a no-op; snapshots must survive a JSON round-trip; and the
   measured costs must agree with the paper's Table 1 within the
   documented tolerance bands (Table1_check). *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Table1_check = Risefl_core.Table1_check

(* --- clock --- *)

let test_clock_monotonic () =
  let a = Telemetry.Clock.now_ns () in
  let x = ref 0 in
  for i = 1 to 10_000 do
    x := !x + i
  done;
  ignore !x;
  let b = Telemetry.Clock.now_ns () in
  Alcotest.(check bool) "monotonic" true (Int64.compare b a >= 0);
  let r, dt = Telemetry.Clock.time (fun () -> 42) in
  Alcotest.(check int) "time returns value" 42 r;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0)

(* --- enabled/disabled discipline --- *)

let test_disabled_noop () =
  Telemetry.reset ();
  Telemetry.disable ();
  let c = Telemetry.Counter.make "test.disabled" in
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "disabled counter stays 0" 0 (Telemetry.Counter.value c);
  let r = Telemetry.Span.with_ "test.span" (fun () -> "thunk") in
  Alcotest.(check string) "disabled span passes value" "thunk" r;
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "no spans recorded" 0 (List.length snap.Telemetry.spans)

let test_enabled_counts () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let c = Telemetry.Counter.make "test.enabled" in
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "counts" 42 (Telemetry.Counter.value c);
  let c' = Telemetry.Counter.make "test.enabled" in
  Telemetry.Counter.incr c';
  Alcotest.(check int) "make is idempotent per name" 43 (Telemetry.Counter.value c)

(* --- sharded counters under the parallel runtime --- *)

let test_parallel_counts () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let c = Telemetry.Counter.make "test.parallel" in
  let n = 10_000 in
  Parallel.parallel_for ~jobs:4 ~min_chunk:1 ~lo:0 ~hi:n (fun lo hi ->
      for _ = lo to hi - 1 do
        Telemetry.Counter.incr c
      done);
  Alcotest.(check int) "shards merge to the exact total" n (Telemetry.Counter.value c)

(* --- span nesting, attribution, JSON round-trip --- *)

let test_span_json_roundtrip () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let c = Telemetry.Counter.make "test.roundtrip" in
  Telemetry.Counter.add c 7;
  Telemetry.Span.with_ ~attrs:[ ("round", "1") ] "outer" (fun () ->
      Telemetry.Span.with_ ~attrs:[ ("stage", "commit"); ("role", "client") ] "inner" (fun () ->
          ()));
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "two spans" 2 (List.length snap.Telemetry.spans);
  let inner =
    List.find (fun s -> List.mem "inner" s.Telemetry.path) snap.Telemetry.spans
  in
  Alcotest.(check (list string)) "nested path" [ "outer"; "inner" ] inner.Telemetry.path;
  Alcotest.(check (option string)) "attr kept" (Some "commit")
    (List.assoc_opt "stage" inner.Telemetry.attrs);
  let json = Telemetry.snapshot_to_json snap in
  let text = Telemetry.Json.to_string json in
  match Telemetry.Json.parse text with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok json' -> (
      match Telemetry.snapshot_of_json json' with
      | Error e -> Alcotest.fail ("of_json failed: " ^ e)
      | Ok snap' ->
          Alcotest.(check int) "counter survives round-trip" 7
            (try List.assoc "test.roundtrip" snap'.Telemetry.counters with Not_found -> -1);
          Alcotest.(check int) "spans survive round-trip"
            (List.length snap.Telemetry.spans)
            (List.length snap'.Telemetry.spans);
          let inner' =
            List.find (fun s -> List.mem "inner" s.Telemetry.path) snap'.Telemetry.spans
          in
          Alcotest.(check (list string)) "path round-trips" inner.Telemetry.path
            inner'.Telemetry.path;
          Alcotest.(check (option string)) "attrs round-trip" (Some "client")
            (List.assoc_opt "role" inner'.Telemetry.attrs))

(* --- jobs-invariance: the tentpole property --- *)

(* Configuration chosen so the round's largest MSM stays under the
   2*Msm.seq_cutoff single-chunk threshold: chunk counts (and hence every
   counter) are then schedule-independent at any job count. *)
let round_snapshot ~jobs =
  Parallel.set_default_jobs jobs;
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let n = 3 and d = 32 and k = 4 in
  let params =
    Params.make ~n_clients:n ~max_malicious:1 ~d ~k ~b_ip_bits:16 ~b_max_bits:64 ~m_factor:4.0
      ~bound_b:250.0 ()
  in
  let setup = Setup.create ~label:"test-telemetry-jobs" params in
  let updates =
    Array.init n (fun i -> Array.init d (fun l -> ((i * 17) + (l * 5) + 1) mod 60 - 30))
  in
  let session = Driver.create_session setup ~seed:"telemetry-jobs" in
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome ~serialize:true session ~updates ~behaviours:(Driver.honest_all n)
         ~round:1)
  in
  (Telemetry.snapshot (), stats)

let test_jobs_invariant () =
  let prev_jobs = Parallel.default_jobs () in
  Fun.protect ~finally:(fun () -> Parallel.set_default_jobs prev_jobs) @@ fun () ->
  let snap1, stats1 = round_snapshot ~jobs:1 in
  let counters1 = List.sort compare snap1.Telemetry.counters in
  Alcotest.(check bool) "point ops counted" true
    (List.assoc "point.add" counters1 > 0 && List.assoc "point.scalarmul" counters1 > 0);
  Alcotest.(check bool) "wire bytes counted" true (List.assoc "wire.commit.bytes" counters1 > 0);
  Alcotest.(check bool) "hash blocks counted" true (List.assoc "sha256.blocks" counters1 > 0);
  Alcotest.(check bool) "drbg bytes counted" true (List.assoc "drbg.bytes" counters1 > 0);
  List.iter
    (fun jobs ->
      let snap, stats = round_snapshot ~jobs in
      let counters = List.sort compare snap.Telemetry.counters in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters identical at jobs=%d" jobs)
        counters1 counters;
      Alcotest.(check (list int))
        (Printf.sprintf "verdict identical at jobs=%d" jobs)
        stats1.Driver.flagged stats.Driver.flagged;
      Alcotest.(check (option (array int)))
        (Printf.sprintf "aggregate identical at jobs=%d" jobs)
        stats1.Driver.aggregate stats.Driver.aggregate)
    [ 2; 4 ]

(* --- cost-model agreement (the executable Table 1) --- *)

let test_table1_agreement () =
  let report = Table1_check.run () in
  if not report.Table1_check.all_ok then
    Alcotest.fail ("Table 1 cross-check failed:\n" ^ Table1_check.to_table report);
  Alcotest.(check bool) "all gated stages within band" true report.Table1_check.all_ok

let () =
  Alcotest.run "telemetry"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic + time" `Quick test_clock_monotonic ] );
      ( "counters",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "enabled counts" `Quick test_enabled_counts;
          Alcotest.test_case "sharded merge under parallel_for" `Quick test_parallel_counts;
        ] );
      ( "spans",
        [ Alcotest.test_case "nesting + JSON round-trip" `Quick test_span_json_roundtrip ] );
      ( "invariance",
        [ Alcotest.test_case "op counts are jobs-invariant" `Slow test_jobs_invariant ] );
      ( "table1",
        [ Alcotest.test_case "measured costs match the cost model" `Slow test_table1_agreement ] );
    ]
