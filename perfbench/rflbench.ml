(* The repository benchmark.

     rflbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 runs protocol rounds through Driver (the entry point of the
   CLI's round and serve commands) for S seconds and prints the
   end-to-end metrics; --trace 1 runs the same rounds through Driver and
   through a stage-by-stage twin session whose every layer call is timed
   from here, and prints the per-layer breakdown. Every round is checked
   against the plaintext oracle; the last stdout line is the result
   object {correct, attempted, failed, metrics}. Everything runs at
   jobs=1. *)

open Risefl_core
open Bench_util
module Topology = Risefl_topology.Topology

(* --- one Driver session with everything the workload sets up --- *)

type ctx = {
  w : Workload.t;
  seed : int;
  sess_seed : string;
  setup : Setup.t;
  session : Driver.session;
  behaviours : Driver.behaviour array;
  reliable : Reliable.t option;
  wal : Round_log.t option;
  cohort_for : (int -> Membership.epoch option) option;
  mutable banned : int list;  (** the oracle's session-scope C* *)
}

let fresh_wal path =
  if Sys.file_exists path then Sys.remove path;
  Round_log.create ~fsync:true path

let loopback_reliable sess_seed =
  let lb = Risefl_transport.Loopback.create ~plan:Workload.fault_plan ~seed:sess_seed () in
  Reliable.create_ep ~max_attempts:Workload.max_attempts (Risefl_transport.Loopback.endpoint lb)

let wal_path dir w ~seed tag = Filename.concat dir (Printf.sprintf "%s-seed%d%s.wal" w.Workload.name seed tag)

(* the timed set-up: Setup.create + Driver.create_session, plus the WAL,
   the transport and the membership schedule in the crowd workload *)
let make_ctx ?(tag = "") w ~seed ~dir =
  let sess_seed = Workload.session_seed w ~seed in
  let setup = Setup.create ~label:(Workload.setup_label w ~seed) (Workload.params w) in
  let session = Driver.create_session setup ~seed:sess_seed in
  let reliable, wal, cohort_for =
    if w.Workload.crowd then
      ( Some (loopback_reliable sess_seed),
        Some (fresh_wal (wal_path dir w ~seed tag)),
        Some (Driver.churn_cohort_for session ~spec:(Workload.churn_spec w) ~rounds:Workload.max_rounds) )
    else (None, None, None)
  in
  {
    w;
    seed;
    sess_seed;
    setup;
    session;
    behaviours = Workload.behaviours w ~seed;
    reliable;
    wal;
    cohort_for;
    banned = [];
  }

let close_ctx c = Option.iter Round_log.close c.wal

(* Set-up is timed on throwaway copies (with a WAL of their own): a few
   before the first round and one before every round after, so the
   samples span the whole run rather than one moment of it. Each starts
   from a collected heap, as rounds do. *)
let initial_setups = 3

let setup_sample w ~seed ~dir =
  Gc.full_major ();
  let c, dt = time (fun () -> make_ctx ~tag:"-setup" w ~seed ~dir) in
  close_ctx c;
  Option.iter (fun _ -> Sys.remove (wal_path dir w ~seed "-setup")) c.wal;
  dt

(* --- one Driver round, checked against the oracle --- *)

type round_obs = {
  r : int;
  wall : float;
  cpu : float;  (** process CPU seconds over the round *)
  stats : Driver.stats option;
  verdict : string option;  (** None = matches the oracle *)
  expect : Workload.expect;
  r_aggregate : int array option;
  r_cstar : int list;
}

let driver_round c ~round =
  let w = c.w in
  let updates = Workload.updates w ~seed:c.seed ~round in
  let cpu0 = Unix.times () in
  let (outcome, epoch), wall =
    time (fun () ->
        let epoch = match c.cohort_for with Some f -> f round | None -> None in
        let outcome =
          Driver.run_round_outcome ~serialize:true ?reliable:c.reliable ?wal:c.wal ?stream:(Workload.stream_cfg w)
            ?epoch ~topology:(Workload.topology w) c.session ~updates ~behaviours:c.behaviours ~round
        in
        (* the session loop carries C* into the next round *)
        (match outcome with
        | Driver.Completed s -> List.iter (Server.ban (Driver.session_server c.session)) s.Driver.flagged
        | _ -> ());
        (outcome, epoch))
  in
  let cpu =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime
  in
  let cohort = match epoch with Some ep -> ep.Membership.ep_cohort | None -> Array.init w.Workload.n (fun i -> i + 1) in
  let topo = Topology.plan ~mode:(Workload.topology w) ~seed:c.sess_seed ~round ~cohort in
  let expect = Workload.predict w ~behaviours:c.behaviours ~updates ~cohort ~topo ~banned:c.banned in
  c.banned <- expect.Workload.cstar;
  match outcome with
  | Driver.Completed s ->
      let verdict = Workload.check expect ~aggregate:s.Driver.aggregate ~cstar:s.Driver.flagged in
      { r = round; wall; cpu; stats = Some s; verdict; expect; r_aggregate = s.Driver.aggregate; r_cstar = s.Driver.flagged }
  | o ->
      {
        r = round;
        wall;
        cpu;
        stats = None;
        verdict = Some (Driver.outcome_to_string o);
        expect;
        r_aggregate = None;
        r_cstar = [];
      }

(* Rounds 1, 2, ... until [seconds] have passed and more than
   [min_rounds] ran, each after [before ()], sampling the host probes
   after each; stops at the first failed round. Returns the rounds
   observed and how many were attempted (a round that raised is
   attempted but leaves no observation). *)
let run_rounds ?(before = ignore) ~min_rounds ~seconds ~failed f =
  let t0 = now () in
  let rec loop round acc =
    if round > min_rounds && now () -. t0 >= float_of_int seconds then (List.rev acc, round - 1)
    else begin
      before ();
      (* every round starts from a collected heap, so garbage an earlier
         round left behind is not billed to this one *)
      Gc.full_major ();
      match f ~round with
      | exception e ->
          Printf.eprintf "round %d raised %s\n%!" round (Printexc.to_string e);
          (List.rev acc, round)
      | o ->
          sample_host ();
          if failed o then (List.rev (o :: acc), round) else loop (round + 1) (o :: acc)
    end
  in
  loop 1 []

(* --- run records --- *)

let metric name unit v = (name, Obj [ ("value", Float v); ("unit", Str unit) ])

let meta w ~seed ~seconds ~trace =
  [
    ("workload", Str w.Workload.name);
    ("seed", Int seed);
    ("seconds", Int seconds);
    ("trace", Bool trace);
    ( "config",
      Obj
        [
          ("n", Int w.Workload.n);
          ("m", Int w.Workload.m);
          ("d", Int w.Workload.d);
          ("k", Int w.Workload.k);
          ("b_max", Int w.Workload.b_max);
          ("topology", Str (Topology.mode_to_string (Workload.topology w)));
        ] );
    ("nproc", Int (Domain.recommended_domain_count ()));
    ("jobs", Int (Parallel.default_jobs ()));
    ("ocaml", Str Sys.ocaml_version);
    ("commit", Str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
  ]

let emit ~dir ~file ~record ~correct ~attempted ~failed ~metrics =
  write_file (Filename.concat dir file) (to_string (Obj record) ^ "\n");
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]))

let report_failures obs =
  List.iter
    (fun o -> Option.iter (fun v -> Printf.eprintf "round %d FAILED: %s\n%!" o.r v) o.verdict)
    obs

(* --- end-to-end run --- *)

let min_rounds = 3

let run_e2e w ~seed ~seconds ~dir =
  let c = make_ctx w ~seed ~dir in
  let setups = ref [] and heap_words = ref 0 in
  let sample_setup () = setups := setup_sample w ~seed ~dir :: !setups in
  for _ = 1 to initial_setups do
    sample_setup ()
  done;
  sample_host ();
  let obs, attempted =
    run_rounds ~before:sample_setup ~min_rounds ~seconds
      ~failed:(fun o -> o.verdict <> None)
      (fun ~round ->
        let o = driver_round c ~round in
        (* the heap peak is read where every run gets to, so it does not
           grow with the number of rounds the host's speed fits in *)
        if round = min_rounds then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
        o)
  in
  let ran = List.length obs in
  let failed = attempted - List.length (List.filter (fun o -> o.verdict = None) obs) in
  report_failures obs;
  close_ctx c;
  Option.iter (fun _ -> Sys.remove (wal_path dir w ~seed "")) c.wal;
  (* the first round is the warm-up: lazily built tables and heap growth *)
  let measured = List.filter_map (fun o -> if o.r >= 2 then Option.map (fun s -> (o, s)) o.stats else None) obs in
  let col f = List.map f measured in
  let round_s = summarize (col (fun (o, _) -> o.wall)) in
  let client_xs =
    col (fun (_, s) -> s.Driver.client_commit_s +. s.Driver.client_share_verify_s +. s.Driver.client_proof_s)
  in
  let server_xs = col (fun (_, s) -> s.Driver.server_prep_s +. s.Driver.server_verify_s +. s.Driver.server_agg_s) in
  let client_s = summarize client_xs and server_s = summarize server_xs in
  let up = median (col (fun (_, s) -> float_of_int s.Driver.client_up_bytes)) in
  let down = median (col (fun (_, s) -> float_of_int s.Driver.client_down_bytes)) in
  let setup_s = summarize !setups in
  let peak_heap_mb = float_of_int !heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let metrics =
    [
      metric "setup_s" "s" setup_s.med;
      (* Per-round times are means over the measured rounds, not medians:
         the host runs this code at two speeds, in phases of seconds to
         minutes, so per-round samples are bimodal and their median jumps
         between the modes as the share of slow rounds crosses a half,
         while the mean moves with that share. Over the same runs the mean
         spread less between runs (crowd server_s 0.14 against 0.23). *)
      metric "round_s" "s" round_s.mean;
      metric "client_s" "s" client_s.mean;
      metric "server_s" "s" server_s.mean;
      metric "client_up_bytes" "bytes" up;
      metric "client_down_bytes" "bytes" down;
      metric "peak_heap_mb" "MB" peak_heap_mb;
    ]
  in
  let record =
    meta w ~seed ~seconds ~trace:false
    @ [
        ("rounds", Int ran);
        ("failed_rounds_frac", Float (float_of_int failed /. float_of_int attempted));
        ("included_per_round", Arr (List.map (fun o -> Int (List.length o.expect.Workload.included)) obs));
        ("round_walls_s", Arr (List.map (fun o -> Float o.wall) obs));
        ("round_cpu_s", Arr (List.map (fun o -> Float o.cpu) obs));
        ("round_client_s", Arr (List.map (fun x -> Float x) client_xs));
        ("round_server_s", Arr (List.map (fun x -> Float x) server_xs));
        ("setup_samples_s", Arr (List.rev_map (fun x -> Float x) !setups));
        ( "timings",
          Obj
            [
              ("setup_s", summary_json setup_s);
              ("round_s", summary_json round_s);
              ("client_s", summary_json client_s);
              ("server_s", summary_json server_s);
              ("first_round_s", Float (match obs with o :: _ -> o.wall | [] -> nan));
            ] );
        ("host", host_json ());
        ("metrics", Obj metrics);
      ]
  in
  emit ~dir ~file:(Printf.sprintf "%s-seed%d-e2e.json" w.Workload.name seed) ~record ~correct:(failed = 0) ~attempted
    ~failed ~metrics

(* --- traced run --- *)

(* Each round runs through Driver untraced, then through the twin with
   spans and Telemetry counters on; both must match the oracle and each
   other. *)
let traced_rounds c rep ~seconds =
  let w = c.w in
  let twin_round ~round =
    let o = driver_round c ~round in
    let updates = Workload.updates w ~seed:c.seed ~round in
    Gc.full_major ();
    Telemetry.reset ();
    Telemetry.enable ();
    let res = Fun.protect ~finally:Telemetry.disable (fun () -> Replica.round rep ~updates ~round) in
    let verdict =
      match o.verdict with
      | Some _ as v -> v
      | None ->
          if res.Replica.aggregate <> o.r_aggregate || res.Replica.cstar <> o.r_cstar then
            Some "traced twin differs from Driver (aggregate or C*)"
          else None
    in
    ({ o with verdict }, res)
  in
  run_rounds ~min_rounds:2 ~seconds ~failed:(fun (o, _) -> o.verdict <> None) twin_round

let run_traced w ~seed ~seconds ~dir =
  let c = make_ctx w ~seed ~dir in
  let rep_wal = if w.Workload.crowd then Some (fresh_wal (wal_path dir w ~seed "-twin")) else None in
  let rep_rel = if w.Workload.crowd then Some (loopback_reliable c.sess_seed) else None in
  let rep = Replica.create w c.setup ~seed:c.sess_seed ~behaviours:c.behaviours ~reliable:rep_rel ~wal:rep_wal in
  sample_host ();
  let obs, attempted = traced_rounds c rep ~seconds in
  let ran = List.length obs in
  let failed = attempted - List.length (List.filter (fun (o, _) -> o.verdict = None) obs) in
  report_failures (List.map fst obs);
  Option.iter Round_log.close rep_wal;
  close_ctx c;
  if w.Workload.crowd then List.iter (fun tag -> Sys.remove (wal_path dir w ~seed tag)) [ ""; "-twin" ];
  (* the breakdown covers the measured rounds; round 1 is the warm-up *)
  let measured = List.filter (fun (o, _) -> o.r >= 2) obs in
  let spans = List.rev !Trace.spans in
  let b = Trace.breakdown spans ~rounds:(List.map (fun (o, _) -> o.r) measured) in
  let per = Trace.name_s b and count = Trace.total b in
  let per_proof names =
    mean
      (List.filter_map
         (fun s ->
           if s.Trace.name = "client.proof" && s.Trace.round >= 2 then
             Some (float_of_int (List.fold_left (fun a n -> a + s.Trace.deltas.(Trace.counter_index n)) 0 names))
           else None)
         spans)
  in
  let trace_round_s = mean b.Trace.walls in
  let driver_round_s = mean (List.map (fun (o, _) -> o.wall) measured) in
  let first_round_s = match obs with (o, _) :: _ -> o.wall | [] -> nan in
  let last_agg = match List.rev obs with (o, _) :: _ -> o.expect.Workload.aggregate | [] -> Array.make w.Workload.d 0 in
  let probe_metrics, standalone =
    Probes.run w c.setup ~dir ~aggregate:last_agg ~commit_frame:rep.Replica.last_commit_frame
      ~pks:(Array.map Client.public_key (Driver.session_clients c.session))
  in
  let in_round_or_probe name ~from_round = if w.Workload.crowd then from_round else List.assoc name standalone in
  let rel_ratio =
    match rep_rel with
    | Some rel ->
        let k = Reliable.counters rel in
        if k.Reliable.attempts = 0 then 0.0 else float_of_int k.Reliable.retransmits /. float_of_int k.Reliable.attempts
    | None -> 0.0
  in
  let results = List.map snd measured in
  let s name = metric name "s" and cnt name = metric name "count" and bytes name = metric name "bytes" (count name) in
  let evals = count "msm.evals" in
  let metrics =
    [
      s "client.commit_s" (per "client.commit");
      s "client.share_verify_s" (per "client.share_verify");
      s "client.proof_s" (per "client.proof");
      s "client.agg_s" (per "client.agg");
      s "server.begin_s" (per "server.begin");
      s "server.flags_s" (per "server.flags");
      s "server.prep_s" (per "server.prep");
      s "server.tables_s" (per "server.tables");
      s "server.verify_s" (per "server.verify");
      s "server.agg_s" (per "server.agg");
      cnt "server.convicted" (mean (List.map (fun (o, _) -> float_of_int (List.length o.r_cstar)) measured));
      cnt "server.included" (mean (List.map (fun (o, _) -> float_of_int (List.length o.expect.Workload.included)) measured));
      s "serial.encode_s" (per "serial.encode");
      s "serial.decode_s" (per "serial.decode");
      bytes "wire.commit.bytes";
      bytes "wire.flag.bytes";
      bytes "wire.proof.bytes";
      bytes "wire.agg.bytes";
      bytes "wire.broadcast.bytes";
      cnt "zkp.sha256.blocks_per_proof" (per_proof [ "sha256.blocks" ]);
      metric "zkp.drbg.bytes_per_proof" "bytes" (per_proof [ "drbg.bytes" ]);
      cnt "client.proof.point_ops" (per_proof [ "point.add"; "point.double"; "point.madd" ]);
      cnt "point.add" (count "point.add");
      cnt "point.double" (count "point.double");
      cnt "point.madd" (count "point.madd");
      cnt "point.scalarmul" (count "point.scalarmul");
      cnt "msm.evals" evals;
      cnt "msm.points" (count "msm.points");
      cnt "msm.points_per_eval" (if evals = 0.0 then 0.0 else count "msm.points" /. evals);
      cnt "fe.invert_batch.elems" (count "fe.invert_batch.elems");
      cnt "dlog.probes" (count "dlog.probes");
      cnt "dlog.probes_per_coord" (count "dlog.probes" /. float_of_int w.Workload.d);
      cnt "topology.degree"
        (mean
           (List.map
              (fun r ->
                float_of_int
                  (match r.Replica.topo with Some tp -> Topology.degree tp | None -> Array.length r.Replica.cohort - 1))
              results));
      cnt "topo.recovered" (count "topo.recovered");
      cnt "topo.excluded" (count "topo.excluded");
      s "membership.epoch_s" (in_round_or_probe "membership.epoch_s" ~from_round:(per "membership.epoch"));
      cnt "membership.cohort" (mean (List.map (fun r -> float_of_int (Array.length r.Replica.cohort)) results));
      s "wal.append_s"
        (in_round_or_probe "wal.append_s"
           ~from_round:(median (Option.value ~default:[] (Hashtbl.find_opt b.Trace.by_name "wal.append"))));
      cnt "wal.appends" (count "wal.appends");
      bytes "wal.bytes";
      cnt "wal.fsyncs" (count "wal.fsyncs");
      s "transport.deliver_s" (in_round_or_probe "transport.deliver_s" ~from_round:(per "transport.deliver"));
      cnt "transport.frames.in" (count "transport.frames.in");
      bytes "transport.bytes.out";
      cnt "rel.retransmits" (count "rel.retransmits");
      metric "rel.retransmit_ratio" "ratio" rel_ratio;
      cnt "net.dropped" (count "net.dropped");
      s "driver.first_round_s" first_round_s;
      s "driver.round_s" driver_round_s;
      s "trace.round_s" trace_round_s;
      s "trace.overhead_s" (trace_round_s -. driver_round_s);
      metric "mem.live_words.peak" "words" (float_of_int rep.Replica.peak_live_words);
      cnt "stream.peak_batch"
        (match Server.stream_stats rep.Replica.server with Some st -> float_of_int st.Server.peak_batch | None -> 0.0);
      cnt "stream.evicted" (count "stream.evicted");
    ]
    @ List.map (fun (l, name) -> s name (Trace.layer_self b l)) Trace.layers
    @ List.map (fun (name, v) -> s name v) probe_metrics
  in
  (* the parts must add up: layer self times + remainder = round wall *)
  let parts = List.fold_left (fun a (l, _) -> a +. Trace.layer_self b l) 0.0 Trace.layers in
  if measured <> [] && Float.abs (parts -. trace_round_s) > 1e-6 *. trace_round_s then
    raise
      (Trace.Negative_remainder (Printf.sprintf "layer self times sum to %g s, the round wall is %g s" parts trace_round_s));
  let base = Printf.sprintf "%s-seed%d" w.Workload.name seed in
  write_file (Filename.concat dir (base ^ ".spans.json")) (to_string (Trace.to_json !Trace.spans) ^ "\n");
  let report =
    Report.table b ~workload:w.Workload.name ~seed ~round_s:trace_round_s ~untraced_s:driver_round_s
  in
  write_file (Filename.concat dir (base ^ ".report.txt")) report;
  prerr_string report;
  let record =
    meta w ~seed ~seconds ~trace:true
    @ [
        ("rounds", Int ran);
        ("measured_rounds", Int (List.length measured));
        ( "call_self_s",
          Obj
            (List.sort compare
               (Hashtbl.fold (fun k xs acc -> (k, summary_json (summarize xs)) :: acc) b.Trace.by_name [])) );
        ("host", host_json ());
        ("metrics", Obj metrics);
      ]
  in
  emit ~dir ~file:(base ^ "-traced.json") ~record ~correct:(failed = 0) ~attempted ~failed ~metrics

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 and dir = ref "perfbench/_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME wide-model | crowd");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--out", Arg.Set_string dir, "DIR where run records, spans and reports go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rflbench --workload W --seed N --seconds S --trace 0|1";
  match Workload.find !workload with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w ->
      Parallel.set_default_jobs 1;
      if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
      if !trace = 1 then run_traced w ~seed:!seed ~seconds:!seconds ~dir:!dir
      else run_e2e w ~seed:!seed ~seconds:!seconds ~dir:!dir
