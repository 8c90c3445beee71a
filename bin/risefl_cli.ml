(* risefl_cli — command-line front end for the RiseFL reproduction.

   Subcommands:
     round    run one or more secure-and-verifiable aggregation rounds on
              synthetic updates, optionally with attackers, a fault-injected
              (and retransmitting) transport, a write-ahead log and a
              planned server crash
     serve    run the aggregation server on a real TCP or Unix socket
     client   drive one client process against a serve instance
     train    run a federated training simulation under attack with a
              chosen integrity checker
     params   print the derived security quantities (gamma, B0, F curve)
              for a parameter set *)

open Cmdliner

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Round_log = Risefl_core.Round_log
module Reliable = Risefl_core.Reliable
module Topology = Risefl_topology.Topology
module Evloop = Risefl_transport.Evloop
module Tserver = Risefl_transport.Server
module Tclient = Risefl_transport.Client

(* --- shared args --- *)

let n_arg = Arg.(value & opt int 5 & info [ "n"; "clients" ] ~docv:"N" ~doc:"Number of clients.")
let m_arg = Arg.(value & opt int 1 & info [ "m"; "malicious" ] ~docv:"M" ~doc:"Max malicious clients (m < n/2).")
let d_arg = Arg.(value & opt int 32 & info [ "d"; "dimension" ] ~docv:"D" ~doc:"Model dimension.")
let k_arg = Arg.(value & opt int 8 & info [ "k"; "samples" ] ~docv:"K" ~doc:"Probabilistic-check projections.")
let bound_arg = Arg.(value & opt float 800.0 & info [ "bound" ] ~docv:"B" ~doc:"L2 bound (encoded units).")
let seed_arg = Arg.(value & opt string "cli" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"J"
        ~doc:"Worker domains for the parallel hot paths (0 = RISEFL_JOBS or the core count).")

let cache_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the expensive group-layer precomputations (BSGS baby table, fixed-base point \
           tables) under DIR. Warm starts load them instead of rebuilding; corrupt or mismatched \
           entries are rebuilt automatically. Results are bit-identical with or without a cache.")

let configure_group_cache cache_dir =
  Option.iter (fun cache_dir -> Risefl_core.Group_cache.configure ~cache_dir ()) cache_dir

let attackers_arg =
  Arg.(
    value & opt (list int) []
    & info [ "attackers" ] ~docv:"IDS" ~doc:"1-based client ids mounting a 50x scaling attack.")

let topology_arg =
  Arg.(
    value
    & opt (enum [ ("full", `Full); ("kregular", `Kregular) ]) `Full
    & info [ "topology" ] ~docv:"MODE"
        ~doc:
          "Share topology. 'full' (default): every blind is VSSS-shared to all n clients.            'kregular': each round derives a seeded k-regular neighborhood graph and shares only            to graph neighbors, cutting the commit stage from O(n^2) to O(n.k) sealed shares;            agg-stage dropouts are recovered from their neighborhood. k = n-1 is bit-identical            to full.")

let degree_arg =
  Arg.(
    value & opt int 0
    & info [ "degree" ] ~docv:"K"
        ~doc:
          "Neighborhood degree under $(b,--topology) kregular. 0 (default) picks the smallest k            whose neighborhood-majority recovery and privacy bounds both hold with probability            1 - 2^-40 under 5% dropouts and the parameter set's corruption fraction.")

let churn_arg =
  Arg.(
    value & opt (some string) None
    & info [ "churn" ] ~docv:"SPEC"
        ~doc:
          "Elastic membership: drive per-round enrollment from a seeded churn schedule (a pure \
           function of the session seed, so server and clients derive identical cohorts with no \
           membership bytes on the wire). SPEC is \
           'leave=P,rejoin=P,rotate=P,min=N' (any subset; defaults leave=0.2 rejoin=0.5 \
           rotate=0.1 min=3). Membership epochs are WAL-logged before each round, so crash \
           recovery re-enters the round under the exact cohort.")

let make_churn = function
  | None -> None
  | Some spec -> (
      match Risefl_core.Membership.spec_of_string spec with
      | Ok s -> Some s
      | Error e ->
          Printf.eprintf "bad --churn spec: %s\n" e;
          exit 2)

(* resolve the topology mode; auto-degree from the security calculation *)
let make_topology ~n ~m ~topology ~degree =
  match topology with
  | `Full -> Topology.Full
  | `Kregular ->
      let k =
        if degree > 0 then degree
        else
          Topology.recommend_degree ~n ~dropout:0.05
            ~corruption:(float_of_int m /. float_of_int n)
            ~sigma:40
      in
      Topology.Kregular k

let print_topology ~seed ~n mode =
  match mode with
  | Topology.Full -> ()
  | Topology.Kregular k -> (
      match
        Topology.plan ~mode ~seed ~round:1 ~cohort:(Array.init n (fun i -> i + 1))
      with
      | None -> Printf.printf "topology: kregular k=%d normalizes to full (all-to-all)\n" k
      | Some t ->
          Printf.printf "topology: kregular k=%d t=%d digest=%s (round 1)\n" (Topology.degree t)
            (Topology.threshold t) (Topology.hex_digest t))

let wal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "wal" ] ~docv:"FILE"
        ~doc:
          "Arm the durable runtime: append every accepted frame to FILE (write-ahead, fsynced). \
           A run on an existing FILE resumes it: an interrupted round is finished, and the \
           session continues after the last sealed round.")

(* [ROUND:]STAGE:STEP (round defaults to 1); a crash needs the log that
   recovers it *)
let parse_crash ~wal_file = function
  | None -> None
  | Some spec -> (
      if wal_file = None then begin
        Printf.eprintf "--crash requires --wal (recovery needs the log)\n";
        exit 2
      end;
      let round, rest =
        match String.split_on_char ':' spec with
        | [ r; stage; step ] when int_of_string_opt r <> None -> (int_of_string r, stage ^ ":" ^ step)
        | _ -> (1, spec)
      in
      match Driver.crash_of_string rest with
      | Ok (stage, at) -> Some (round, stage, at)
      | Error e ->
          Printf.eprintf "bad --crash spec: %s\n" e;
          exit 2)

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Independent proof-verification shards (client i lands in shard (i-1) mod S). Each \
           arrived proof frame is buffered into its shard, and each full batch is judged by one \
           MSM and its decoded bulk evicted; verdicts and the aggregate do not depend on S.")

let stream_batch_arg =
  Arg.(
    value & opt (some int) None
    & info [ "stream-batch" ] ~docv:"B"
        ~doc:
          "Proof frames buffered per shard before its batch MSM. Default: the whole proof stage \
           in one batch with one shard, 64 with more.")

let make_stream_cfg ~shards ~batch =
  if shards < 1 || (match batch with Some b -> b < 1 | None -> false) then begin
    Printf.eprintf "--shards and --stream-batch must be >= 1\n";
    exit 2
  end;
  if shards = 1 && batch = None then None
  else Some (Risefl_core.Server.stream_cfg ~shards ?batch ())

let print_stream_stats = function
  | None -> ()
  | Some st ->
      Printf.printf "stream: %d folded, %d evicted, %d flushes, peak batch %d\n"
        st.Risefl_core.Server.folded st.Risefl_core.Server.evicted st.Risefl_core.Server.flushes
        st.Risefl_core.Server.peak_batch

(* the synthetic per-round updates live in Risefl_transport.Updates so the
   serve/client processes derive bit-identical vectors from the seed *)
let make_updates = Risefl_transport.Updates.make
let make_behaviours = Risefl_transport.Updates.behaviours

let ids l = String.concat ";" (List.map string_of_int l)

(* a round's verdict as every process sees it: [round], [serve] and
   [client] print these lines alike *)
let print_verdict ~d ~round = function
  | Risefl_transport.Proto.Rv_completed { cstar; aggregate } -> (
      Printf.printf "round %d completed\nflagged: [%s]\n" round (ids cstar);
      match aggregate with
      | Some agg ->
          Printf.printf "aggregate (first 8 coords): %s\n"
            (String.concat " " (List.init (min 8 d) (fun l -> string_of_int agg.(l))))
      | None -> print_endline "aggregation failed")
  | Risefl_transport.Proto.Rv_aborted_quorum { stage; survivors; needed } ->
      Printf.printf "round %d %s\n" round
        (Driver.outcome_to_string (Driver.Aborted_insufficient_quorum { stage; survivors; needed }))
  | Risefl_transport.Proto.Rv_aborted_decode offenders ->
      Printf.printf "round %d %s\n" round (Driver.outcome_to_string (Driver.Aborted_decode offenders))

(* the verdict, then what only the process that ran the round knows *)
let print_outcome ~d ~round outcome =
  print_verdict ~d ~round (Tserver.view_of_outcome outcome);
  match outcome with
  | Driver.Completed stats ->
      if stats.Driver.decode_failures <> [] then
        Printf.printf "undecodable frames from: [%s]\n" (ids stats.Driver.decode_failures);
      Option.iter
        (fun e -> Printf.printf "aggregation failure: %s\n" (Risefl_core.Server.agg_error_to_string e))
        stats.Driver.failure;
      Printf.printf
        "client: commit %.3fs, share-verify %.3fs, proof %.3fs | server: prep %.3fs, verify \
         %.3fs, agg %.3fs\n"
        stats.Driver.client_commit_s stats.Driver.client_share_verify_s stats.Driver.client_proof_s
        stats.Driver.server_prep_s stats.Driver.server_verify_s stats.Driver.server_agg_s;
      Printf.printf "comm per client: %.1f KB up, %.1f KB down\n"
        (float_of_int stats.Driver.client_up_bytes /. 1024.0)
        (float_of_int stats.Driver.client_down_bytes /. 1024.0)
  | _ -> ()

(* a session as [round] and [serve] report it: where the log resumed,
   each round's verdict, the membership movement under churn, the
   session totals and the last proof stream's counters *)
let print_session ~d ~churn (report : Driver.session_report) stream_stats =
  Option.iter
    (Printf.printf "recovered round %d from the write-ahead log\n")
    report.Driver.resumed_round;
  List.iter (fun (r, outcome) -> print_outcome ~d ~round:r outcome) report.Driver.round_outcomes;
  if churn then begin
    Printf.printf "cohorts: %s\n"
      (String.concat " "
         (List.map (fun (r, size) -> Printf.sprintf "r%d=%d" r size) report.Driver.cohort_sizes));
    let c = report.Driver.churn in
    Printf.printf "churn: %d joined, %d left, %d rejoined, %d rotated\n" c.Driver.joined
      c.Driver.left c.Driver.rejoined c.Driver.rotated
  end;
  if
    report.Driver.rounds_attempted > 1
    || report.Driver.crashes_recovered > 0
    || report.Driver.final_banned <> []
  then
    Printf.printf "session: %d/%d rounds completed, %d crash(es) recovered, banned [%s]\n"
      report.Driver.rounds_completed report.Driver.rounds_attempted
      report.Driver.crashes_recovered
      (ids report.Driver.final_banned);
  print_stream_stats stream_stats

let print_transport_counters net =
  let c = Netsim.counters net in
  Printf.printf
    "transport: %d sent, %d delivered, %d dropped, %d late, %d mutated, %d duplicated, %d \
     reordered, %d replayed, %d retransmitted, %d recovered\n"
    c.Netsim.sent c.Netsim.delivered c.Netsim.dropped c.Netsim.late c.Netsim.mutated
    c.Netsim.duplicated c.Netsim.reordered c.Netsim.replayed c.Netsim.retransmitted
    c.Netsim.recovered

let print_reliable_counters rel =
  let c = Reliable.counters rel in
  Printf.printf
    "reliable: %d frames, %d sends, %d retransmits, %d recovered after retry, %d lost for good, \
     %d duplicates suppressed, %d rejected\n"
    c.Reliable.logical c.Reliable.attempts c.Reliable.retransmits c.Reliable.recovered
    c.Reliable.lost c.Reliable.dup_suppressed c.Reliable.rejected

let rounds_arg =
  Arg.(
    value & opt int 1
    & info [ "rounds" ] ~docv:"R" ~doc:"Protocol rounds to run (C* carries across rounds).")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write the snapshot (operation counters, per-stage spans, wire \
           bytes, transport counters) to FILE as JSON.")

let start_trace trace =
  if trace <> None then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end

let write_trace trace =
  match trace with
  | None -> ()
  | Some file ->
      Telemetry.disable ();
      let snap = Telemetry.snapshot () in
      Telemetry.write_json file snap;
      Printf.printf "trace: %d counters, %d spans -> %s\n"
        (List.length (List.filter (fun (_, v) -> v <> 0) snap.Telemetry.counters))
        (List.length snap.Telemetry.spans) file

(* --- round --- *)

let round_cmd =
  let faults_arg =
    Arg.(
      value & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Run the round over a fault-injected transport. SPEC is a comma-separated plan, e.g. \
             'drop=0.1,flip=0.05,delay=0.2:4,dup=0.02,trunc=0.05,reorder=0.1,replay=0.02'.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 4
      & info [ "deadline" ] ~docv:"TICKS"
          ~doc:"Per-stage delivery deadline in simulated ticks; later frames count as dropouts.")
  in
  let crash_arg =
    Arg.(
      value & opt (some string) None
      & info [ "crash" ] ~docv:"[ROUND:]STAGE:STEP"
          ~doc:
            "Kill the server at the given point (stage in commit|flag|proof|agg, step in \
             start|end|frame-index), then recover from the write-ahead log (requires $(b,--wal)). \
             E.g. 'proof:start', '2:agg:1'.")
  in
  let retransmit_arg =
    Arg.(
      value & flag
      & info [ "retransmit" ]
          ~doc:
            "Layer the ack/retransmission protocol over the transport: unacked frames are resent \
             under exponential backoff and duplicates are suppressed by (round,stage,sender,seq).")
  in
  let no_recover_arg =
    Arg.(
      value & flag
      & info [ "no-recover" ]
          ~doc:
            "Do not recover in-process after $(b,--crash): sync the log and exit, leaving the \
             interrupted WAL for a later run on the same $(b,--wal) (requires $(b,--rounds) 1).")
  in
  let dropouts_arg =
    Arg.(
      value & opt (list int) []
      & info [ "dropouts" ] ~docv:"IDS"
          ~doc:
            "1-based client ids that send nothing at all (the in-process twin of a client \
             process that never connects or dies mid-round).")
  in
  let agg_dropouts_arg =
    Arg.(
      value & opt (list int) []
      & info [ "agg-dropouts" ] ~docv:"IDS"
          ~doc:
            "1-based client ids that participate honestly through the proof stage and then go \
             silent at aggregation — the dropout class the kregular topology recovers from the \
             dropout's neighborhood.")
  in
  let run n m d k bound seed attackers dropouts agg_dropouts jobs cache_dir faults deadline trace
      rounds crash wal_file retransmit no_recover shards stream_batch topology_mode degree
      churn_spec =
    if jobs > 0 then Parallel.set_default_jobs jobs;
    configure_group_cache cache_dir;
    let stream = make_stream_cfg ~shards ~batch:stream_batch in
    let topology = make_topology ~n ~m ~topology:topology_mode ~degree in
    let churn = make_churn churn_spec in
    if churn <> None && no_recover then begin
      Printf.eprintf "--churn is a session feature; it does not combine with --no-recover\n";
      exit 2
    end;
    start_trace trace;
    let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound () in
    let setup = Setup.create ~label:("cli/" ^ seed) params in
    let updates_for round = make_updates ~n ~d ~bound ~seed ~attackers ~round in
    let behaviours = make_behaviours ~n ~attackers in
    List.iter
      (fun i -> if i >= 1 && i <= n then behaviours.(i - 1) <- Driver.Drop_out)
      dropouts;
    List.iter
      (fun i -> if i >= 1 && i <= n then behaviours.(i - 1) <- Driver.Agg_silent)
      agg_dropouts;
    print_topology ~seed ~n topology;
    (* the round's one link: the fault plan (ideal when only
       --retransmit asked for a link), with the ack/retransmission layer
       over it under --retransmit *)
    let net =
      match faults with
      | None when not retransmit -> None
      | None -> Some (Netsim.create ~plan:Netsim.ideal ~deadline ~seed:("cli/" ^ seed) ())
      | Some spec -> (
          match Netsim.plan_of_string spec with
          | Ok plan -> Some (Netsim.create ~plan ~deadline ~seed:("cli/" ^ seed) ())
          | Error e ->
              Printf.eprintf "bad --faults spec: %s\n" e;
              exit 2)
    in
    let endpoint, reliable =
      match Option.map Netsim.endpoint net with
      | Some ep when retransmit -> (None, Some (Reliable.create_ep ep))
      | ep -> (ep, None)
    in
    let crash = parse_crash ~wal_file crash in
    let wal = Option.map (fun f -> Round_log.create f) wal_file in
    let session = Driver.create_session setup ~seed in
    let stream_stats () = Risefl_core.Server.stream_stats (Driver.session_server session) in
    (if no_recover then begin
       if rounds <> 1 then begin
         Printf.eprintf "--no-recover requires --rounds 1\n";
         exit 2
       end;
       let crash = Option.map (fun (_, stage, at) -> (stage, at)) crash in
       (match
          Driver.run_round_outcome ?endpoint ?reliable ?wal ?crash ?stream ~topology session
            ~updates:(updates_for 1) ~behaviours ~round:1
        with
       | outcome -> print_outcome ~d ~round:1 outcome
       | exception Driver.Server_crashed { stage; at } ->
           Printf.printf "server crashed at %s (wal synced); finish the round with: round --wal %s\n"
             (Driver.crash_to_string (stage, at))
             (Option.value ~default:"<file>" wal_file));
       print_stream_stats (stream_stats ())
     end
     else begin
       let cohort_for =
         Option.map (fun spec -> Driver.churn_cohort_for session ~spec ~rounds) churn
       in
       let report =
         try
           Driver.run_session ?endpoint ?reliable ?wal ?crash ?stream ?cohort_for ~topology
             session ~updates_for ~behaviours ~rounds
         with Invalid_argument e ->
           (* a fresh process resumes only a log whose next round is 1 *)
           Printf.eprintf "%s\n" e;
           exit 2
       in
       print_session ~d ~churn:(churn <> None) report (stream_stats ())
     end);
    Option.iter print_reliable_counters reliable;
    Option.iter print_transport_counters net;
    Option.iter Round_log.close wal;
    write_trace trace
  in
  Cmd.v
    (Cmd.info "round" ~doc:"Run secure-and-verifiable aggregation rounds.")
    Term.(
      const run $ n_arg $ m_arg $ d_arg $ k_arg $ bound_arg $ seed_arg $ attackers_arg
      $ dropouts_arg $ agg_dropouts_arg $ jobs_arg $ cache_dir_arg $ faults_arg
      $ deadline_arg $ trace_arg $ rounds_arg $ crash_arg $ wal_arg $ retransmit_arg
      $ no_recover_arg $ shards_arg $ stream_batch_arg $ topology_arg $ degree_arg
      $ churn_arg)

(* --- serve / client: the socket deployment --- *)

let addr_conv which =
  let c =
    Arg.conv
      ( (fun s ->
          match Evloop.addr_of_string s with
          | Ok a -> Ok a
          | Error e -> Error (`Msg e)),
        fun ppf a -> Format.pp_print_string ppf (Evloop.addr_to_string a) )
  in
  Arg.(
    value
    & opt c (Evloop.Tcp ("127.0.0.1", 7154))
    & info [ which ] ~docv:"ADDR" ~doc:"Socket address: tcp:HOST:PORT or unix:PATH.")

let deadline_s_arg =
  Arg.(
    value & opt float 15.0
    & info [ "stage-deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock deadline per protocol stage; clients silent past it count as dropouts \
           and the quorum lifecycle decides the round.")

let serve_cmd =
  let crash_arg =
    Arg.(
      value & opt (some string) None
      & info [ "crash" ] ~docv:"[ROUND:]STAGE:STEP"
          ~doc:
            "Kill the server process (SIGKILL, after fsyncing the log) at the given point; \
             restart serve with the same $(b,--wal) to finish the round (requires $(b,--wal)).")
  in
  let run n m d k bound seed jobs cache_dir listen rounds stage_deadline wal_file crash trace
      verbose shards stream_batch topology_mode degree churn_spec =
    if jobs > 0 then Parallel.set_default_jobs jobs;
    configure_group_cache cache_dir;
    let stream = make_stream_cfg ~shards ~batch:stream_batch in
    let topology = make_topology ~n ~m ~topology:topology_mode ~degree in
    let churn = make_churn churn_spec in
    start_trace trace;
    let crash = parse_crash ~wal_file crash in
    let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound () in
    let setup = Setup.create ~label:("cli/" ^ seed) params in
    let log s = if verbose then Printf.eprintf "[serve] %s\n%!" s in
    Printf.printf "serving %d client(s) on %s\n%!" n (Evloop.addr_to_string listen);
    print_topology ~seed ~n topology;
    let report, stream_stats =
      try
        Tserver.serve ~log
          {
            Tserver.addr = listen;
            setup;
            seed;
            rounds;
            stage_deadline_s = stage_deadline;
            wal_path = wal_file;
            crash;
            stream;
            topology;
            churn;
          }
      with Invalid_argument e ->
        Printf.eprintf "serve: %s\n" e;
        exit 2
    in
    print_session ~d ~churn:(churn <> None) report stream_stats;
    write_trace trace
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the aggregation server on a real socket (TCP or Unix-domain).")
    Term.(
      const run $ n_arg $ m_arg $ d_arg $ k_arg $ bound_arg $ seed_arg $ jobs_arg $ cache_dir_arg
      $ addr_conv "listen" $ rounds_arg $ deadline_s_arg $ wal_arg $ crash_arg
      $ trace_arg
      $ Arg.(value & flag & info [ "verbose" ] ~doc:"Log transport events to stderr.")
      $ shards_arg $ stream_batch_arg $ topology_arg $ degree_arg $ churn_arg)

let client_cmd =
  let id_arg =
    Arg.(
      required & opt (some int) None & info [ "id" ] ~docv:"I" ~doc:"This client's 1-based id.")
  in
  let die_at_arg =
    Arg.(
      value & opt (some string) None
      & info [ "die-at" ] ~docv:"ROUND:STAGE"
          ~doc:"Exit the process just before submitting this stage (crash testing).")
  in
  let loris_arg =
    Arg.(
      value & flag
      & info [ "loris" ]
          ~doc:"Write submissions one byte at a time (slow-loris; reassembly testing).")
  in
  let retries_arg =
    Arg.(
      value & opt int 60
      & info [ "max-retries" ] ~docv:"N" ~doc:"Connection attempts before giving up.")
  in
  let run n m d k bound seed attackers jobs cache_dir connect id die_at loris retries trace
      verbose =
    if jobs > 0 then Parallel.set_default_jobs jobs;
    configure_group_cache cache_dir;
    start_trace trace;
    let die_at =
      Option.map
        (fun spec ->
          match String.split_on_char ':' spec with
          | [ r; st ] when int_of_string_opt r <> None && Netsim.stage_of_string st <> None ->
              (int_of_string r, Option.get (Netsim.stage_of_string st))
          | _ ->
              Printf.eprintf "bad --die-at spec (want ROUND:STAGE)\n";
              exit 2)
        die_at
    in
    let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound () in
    let setup = Setup.create ~label:("cli/" ^ seed) params in
    let log s = if verbose then Printf.eprintf "[client %d] %s\n%!" id s in
    let results =
      Tclient.run ~log
        {
          Tclient.addr = connect;
          setup;
          seed;
          id;
          behaviours = make_behaviours ~n ~attackers;
          loris;
          die_at;
          max_connect_attempts = retries;
        }
    in
    List.iter (fun (round, view) -> print_verdict ~d ~round view) results;
    write_trace trace
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive one client process against a serve instance. The round count, stage deadline, \
          share topology and churn schedule are the server's: the client learns them from the \
          server's announcement when it connects. The security parameters and the seed are the \
          client's own and must equal the server's.")
    Term.(
      const run $ n_arg $ m_arg $ d_arg $ k_arg $ bound_arg $ seed_arg $ attackers_arg $ jobs_arg
      $ cache_dir_arg $ addr_conv "connect" $ id_arg $ die_at_arg $ loris_arg
      $ retries_arg $ trace_arg
      $ Arg.(value & flag & info [ "verbose" ] ~doc:"Log transport events to stderr."))

(* --- train --- *)

let train_cmd =
  let dataset_arg =
    Arg.(
      value
      & opt (enum [ ("organ", `Organ); ("covtype", `Covtype); ("blobs", `Blobs) ]) `Blobs
      & info [ "dataset" ] ~docv:"NAME" ~doc:"Dataset: organ, covtype or blobs.")
  in
  let attack_arg =
    Arg.(
      value
      & opt (enum [ ("signflip", `Sign); ("scaling", `Scale); ("labelflip", `Label); ("noise", `Noise) ]) `Sign
      & info [ "attack" ] ~docv:"NAME" ~doc:"Attack: signflip, scaling, labelflip or noise.")
  in
  let checker_arg =
    Arg.(
      value
      & opt (enum [ ("none", `Nc); ("strict", `Sc); ("risefl", `Risefl) ]) `Risefl
      & info [ "checker" ] ~docv:"NAME" ~doc:"Integrity checker: none, strict or risefl.")
  in
  let rounds_arg = Arg.(value & opt int 15 & info [ "rounds" ] ~docv:"R" ~doc:"Training rounds.") in
  let malicious_arg = Arg.(value & opt int 3 & info [ "malicious" ] ~docv:"M" ~doc:"Malicious clients.") in
  let run dataset attack checker rounds malicious seed =
    let drbg = Prng.Drbg.create_string (seed ^ "/data") in
    let data =
      match dataset with
      | `Organ -> Flsim.Dataset.organ_like drbg ~n:600
      | `Covtype -> Flsim.Dataset.covtype_like drbg ~n:800
      | `Blobs -> Flsim.Dataset.gaussian_blobs drbg ~n:600 ~features:32 ~classes:4 ~spread:0.8
    in
    let attack =
      match attack with
      | `Sign -> Flsim.Attack.Sign_flip 5.0
      | `Scale -> Flsim.Attack.Scaling 10.0
      | `Label -> Flsim.Attack.Label_flip (0, 1)
      | `Noise -> Flsim.Attack.Additive_noise 0.5
    in
    let checker =
      match checker with
      | `Nc -> Flsim.Federated.Np_nc
      | `Sc -> Flsim.Federated.Np_sc Flsim.Federated.D_l2
      | `Risefl -> Flsim.Federated.Risefl (Flsim.Federated.D_l2, 200)
    in
    let result =
      Flsim.Federated.train
        {
          Flsim.Federated.n_clients = 10;
          n_malicious = malicious;
          attack;
          checker;
          rounds;
          lr = 0.5;
          batch = None;
          arch = Flsim.Model.Softmax;
          bound_factor = 2.0;
          non_iid_alpha = None;
          seed;
        }
        ~data
    in
    Array.iter
      (fun (l : Flsim.Federated.round_log) ->
        Printf.printf "round %2d  accuracy %.3f  rejected [%s]\n" l.Flsim.Federated.round
          l.Flsim.Federated.accuracy
          (ids l.Flsim.Federated.rejected))
      result.Flsim.Federated.logs;
    Printf.printf "final accuracy: %.3f\n" result.Flsim.Federated.final_accuracy
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Run a federated training simulation under attack.")
    Term.(const run $ dataset_arg $ attack_arg $ checker_arg $ rounds_arg $ malicious_arg $ seed_arg)

(* --- params --- *)

let params_cmd =
  let run n m d k bound =
    let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound () in
    Printf.printf "n=%d m=%d d=%d k=%d B=%.1f (encoded units)\n" n m d k bound;
    Printf.printf "gamma_{k,eps}          = %.3f (gamma/k = %.3f)\n" (Params.gamma params)
      (Params.gamma params /. float_of_int k);
    Printf.printf "B0                     = %s (%d bits; cap 2^%d)\n"
      (Bigint.to_string (Params.b0 params))
      (Bigint.bit_length (Params.b0 params))
      params.Params.b_max_bits;
    Printf.printf "Shamir threshold       = %d-of-%d\n" (Params.shamir_t params) n;
    Printf.printf "aggregation dlog range = +/- %d\n" (Params.agg_max_abs params);
    let pr = Params.passrate_params params in
    print_endline "pass-rate F(c) of a c.B-norm malicious update:";
    List.iter
      (fun c -> Printf.printf "  F(%.2f) = %.4g\n" c (Stats.Passrate.f pr c))
      [ 1.1; 1.5; 2.0; 3.0; 5.0 ];
    let c_star, dmg = Stats.Passrate.max_damage pr in
    Printf.printf "max expected damage    = %.3f B (at c* = %.3f)\n" dmg c_star
  in
  Cmd.v
    (Cmd.info "params" ~doc:"Print the derived security quantities for a parameter set.")
    Term.(const run $ n_arg $ m_arg $ d_arg $ k_arg $ bound_arg)

let () =
  let doc = "RiseFL: secure and verifiable data collaboration with low-cost ZKPs (VLDB 2024 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "risefl_cli" ~doc)
          [ round_cmd; serve_cmd; client_cmd; train_cmd; params_cmd ]))
