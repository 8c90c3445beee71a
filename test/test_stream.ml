(* Streaming verification pipeline tests.

   - Differential: a round with small sharded batches (arrival-ordered
     folding, eviction) must reproduce the default round's — one shard,
     one batch holding the whole proof stage — (aggregate, C*, failure)
     bit for bit across jobs ∈ {1,2,4} × shards ∈ {1,2,4}, including
     under seeded Netsim reordering/duplication/delay, with corrupted
     proofs (in-batch bisection parity) and with an undecodable
     agg-stage frame (its sender keeps its place in the sum).
   - Plaintext oracle: the honest and corruption rows are also checked
     against values computed in the clear — C* is exactly the scripted
     corrupters and the aggregate is Σ u_i over the clients outside C*.
   - Crash mid-proof-stream + WAL recovery: replaying the logged frames
     through the streaming intake resumes the fold bit-identically.
   - Batch-size edges: batch = 1 (flush per frame) and batch > n (one
     terminal drain) are the same round.

   STREAM_STRIDE subsamples the jobs × shards matrix; the default (2)
   keeps `dune runtest` wall time in check on small boxes, and
   STREAM_STRIDE=1 opts into the exhaustive matrix. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Server = Risefl_core.Server
module Round_log = Risefl_core.Round_log

let fail fmt = Alcotest.failf fmt

let stride =
  match Sys.getenv_opt "STREAM_STRIDE" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

(* ------------------------------------------------------------------ *)
(* small sharded batches vs the default one-batch round *)

let n = 5
let m = 2
let d = 12
let k = 3

let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:900.0 ()
let setup = Setup.create ~label:"test/stream" params

let updates =
  let drbg = Prng.Drbg.create_string "stream/updates" in
  Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int drbg 40 - 20))

let summary (stats : Driver.stats) =
  (stats.Driver.aggregate, stats.Driver.flagged, stats.Driver.failure)

(* the plaintext oracle: C* is exactly [cstar], the aggregate is the sum
   of every other client's update, and nothing fails *)
let oracle ~updates ~cstar =
  let agg = Array.make d 0 in
  Array.iteri
    (fun i u ->
      if not (List.mem (i + 1) cstar) then Array.iteri (fun l x -> agg.(l) <- agg.(l) + x) u)
    updates;
  (Some agg, cstar, None)

(* fresh session per run (same seed => bit-identical client messages);
   [mk_transport] builds a fresh fault schedule per run for the same
   reason *)
let run_one ?stream ?mk_transport ~jobs ~behaviours () =
  Parallel.set_default_jobs jobs;
  let session = Driver.create_session setup ~seed:"stream-differential" in
  let endpoint = Option.map (fun mk -> Netsim.endpoint (mk ())) mk_transport in
  summary
    (Driver.completed_exn
       (Driver.run_round_outcome ?stream ?endpoint ~serialize:true session ~updates ~behaviours
          ~round:1))

(* honest rows only: the oracle expects an empty C* *)
let check_matrix ~name ?mk_transport ~behaviours () =
  let idx = ref 0 in
  List.iter
    (fun jobs ->
      let want = run_one ?mk_transport ~jobs ~behaviours () in
      if want <> oracle ~updates ~cstar:[] then
        fail "%s: default round (jobs=%d) differs from the plaintext oracle" name jobs;
      List.iter
        (fun shards ->
          if !idx mod stride = 0 then begin
            List.iter
              (fun batch ->
                let stream = Server.stream_cfg ~shards ~batch () in
                let got = run_one ~stream ?mk_transport ~jobs ~behaviours () in
                if got <> want then
                  fail "%s: streamed (jobs=%d shards=%d batch=%d) differs from one batch" name
                    jobs shards batch)
              [ 2 ]
          end;
          incr idx)
        [ 1; 2; 4 ])
    [ 1; 2; 4 ];
  Parallel.set_default_jobs 2

let test_stream_honest_matrix () =
  check_matrix ~name:"honest" ~behaviours:(Driver.honest_all n) ()

let test_stream_batch_edges () =
  let behaviours = Driver.honest_all n in
  let want = run_one ~jobs:2 ~behaviours () in
  List.iter
    (fun batch ->
      let got = run_one ~stream:(Server.stream_cfg ~shards:2 ~batch ()) ~jobs:2 ~behaviours () in
      if got <> want then fail "batch=%d: streamed round differs from one batch" batch)
    [ 1; 3; 64 ]

(* seeded reordering, duplication and delay — no loss or corruption, so
   the verdicts must be untouched and the fold order is scrambled *)
let reorder_transport () =
  Netsim.create
    ~plan:
      {
        Netsim.ideal with
        Netsim.p_delay = 0.4;
        max_delay = 3;
        p_duplicate = 0.3;
        p_reorder = 0.4;
      }
    ~deadline:6 ~seed:"stream-reorder" ()

let test_stream_reordered_matrix () =
  check_matrix ~name:"reordered" ~mk_transport:reorder_transport
    ~behaviours:(Driver.honest_all n) ()

(* corrupted proofs: the in-batch bisection must attribute exactly the
   one-batch round's C* — the scripted corrupters — whichever shard/batch
   the offenders land in *)
let test_stream_corruption_parity () =
  let behaviours = Array.make n Driver.Honest in
  behaviours.(0) <- Driver.Oversized 100.0;
  behaviours.(3) <- Driver.Oversized 100.0;
  let updates' = Array.copy updates in
  (* ~100x the norm bound: the probabilistic check rejects near-certainly *)
  let oversize u =
    let norm = Encoding.Fixed_point.l2_norm_encoded u in
    let factor = int_of_float (Float.round (100.0 *. params.Params.bound_b /. norm)) in
    Array.map (fun v -> factor * v) u
  in
  updates'.(0) <- oversize updates.(0);
  updates'.(3) <- oversize updates.(3);
  let run ?stream jobs =
    Parallel.set_default_jobs jobs;
    let session = Driver.create_session setup ~seed:"stream-corrupt" in
    summary
      (Driver.completed_exn
         (Driver.run_round_outcome ?stream ~serialize:true session ~updates:updates' ~behaviours
            ~round:1))
  in
  List.iter
    (fun jobs ->
      let want = run jobs in
      if want <> oracle ~updates:updates' ~cstar:[ 1; 4 ] then
        fail "corruption: one-batch round (jobs=%d) differs from the plaintext oracle" jobs;
      List.iter
        (fun shards ->
          List.iter
            (fun batch ->
              let got = run ~stream:(Server.stream_cfg ~shards ~batch ()) jobs in
              if got <> want then
                fail "corruption parity broke at jobs=%d shards=%d batch=%d" jobs shards batch)
            [ 1; 2 ])
        [ 1; 2; 4 ])
    [ 1; 2 ];
  Parallel.set_default_jobs 2

(* an undecodable agg frame arrives after H is fixed and every other
   share was computed over H: its sender stays in H (no conviction, its
   update stays in the sum) and costs only its own share, whatever the
   proof stage's batching *)
let test_stream_garbled_agg_frame () =
  let mk_transport () =
    Netsim.create
      ~script:[ ((1, Netsim.Agg, 2), [ Netsim.Truncate_at 3 ]) ]
      ~seed:"stream-late" ()
  in
  let behaviours = Driver.honest_all n in
  let want = run_one ~mk_transport ~jobs:2 ~behaviours () in
  if want <> oracle ~updates ~cstar:[] then
    fail "garbled agg frame: round differs from the all-client plaintext oracle";
  List.iter
    (fun shards ->
      let got =
        run_one
          ~stream:(Server.stream_cfg ~shards ~batch:2 ())
          ~mk_transport ~jobs:2 ~behaviours ()
      in
      if got <> want then fail "garbled agg frame: parity broke at shards=%d" shards)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* crash mid-stream + WAL recovery *)

let fresh_wal () =
  let path = Filename.temp_file "test-stream" ".wal" in
  Sys.remove path;
  path

let test_stream_crash_recovery () =
  let behaviours = Driver.honest_all n in
  let stream = Server.stream_cfg ~shards:2 ~batch:2 () in
  Parallel.set_default_jobs 2;
  let reference = Driver.create_session setup ~seed:"stream-crash" in
  let want =
    summary
      (Driver.completed_exn
         (Driver.run_round_outcome ~stream ~serialize:true reference ~updates ~behaviours ~round:1))
  in
  (* kill the server mid proof stage — after some frames were already
     folded and their commit bulk evicted — and resume from the log *)
  List.iter
    (fun frame_at ->
      let victim = Driver.create_session setup ~seed:"stream-crash" in
      let wal_path = fresh_wal () in
      let wal = Round_log.create ~fsync:false wal_path in
      let got =
        match
          Driver.run_round_outcome victim ~wal ~stream
            ~crash:(Netsim.Proof, Driver.Stage_frame frame_at) ~updates ~behaviours ~round:1
        with
        | outcome -> outcome
        | exception Driver.Server_crashed _ ->
            let records, _ = Round_log.replay wal_path in
            Driver.recover_round ~wal ~stream victim ~records ~updates ~behaviours ~round:1
      in
      (match got with
      | Driver.Completed stats ->
          if summary stats <> want then
            fail "recovered streamed round (crash at proof:%d) differs from uncrashed" frame_at
      | o -> fail "streamed recovery did not complete: %s" (Driver.outcome_to_string o));
      Round_log.close wal;
      Sys.remove wal_path)
    [ 0; 2; 4 ]

(* the streamed stats surface: counters must account for every client *)
let test_stream_stats () =
  let session = Driver.create_session setup ~seed:"stream-stats" in
  let stream = Server.stream_cfg ~shards:2 ~batch:2 () in
  let behaviours = Driver.honest_all n in
  ignore
    (Driver.completed_exn
       (Driver.run_round_outcome ~stream ~serialize:true session ~updates ~behaviours ~round:1));
  match Server.stream_stats (Driver.session_server session) with
  | None -> fail "no stream stats after a streamed round"
  | Some st ->
      if st.Server.folded <> n then fail "folded %d clients, expected %d" st.Server.folded n;
      if st.Server.evicted <> n then fail "evicted %d commit records, expected %d" st.Server.evicted n;
      if st.Server.flushes < 2 then fail "expected at least one flush per shard";
      if st.Server.peak_batch < 1 || st.Server.peak_batch > 2 then
        fail "peak batch %d outside [1, batch]" st.Server.peak_batch

let () =
  Alcotest.run "stream"
    [
      ( "differential",
        [
          Alcotest.test_case "honest, jobs x shards" `Quick test_stream_honest_matrix;
          Alcotest.test_case "batch-size edges" `Quick test_stream_batch_edges;
          Alcotest.test_case "reordered/duplicated arrivals" `Slow test_stream_reordered_matrix;
          Alcotest.test_case "corruption/bisection parity" `Slow test_stream_corruption_parity;
          Alcotest.test_case "garbled agg frame keeps its sender" `Quick
            test_stream_garbled_agg_frame;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash mid-stream + WAL resume" `Slow test_stream_crash_recovery;
          Alcotest.test_case "stream stats" `Quick test_stream_stats;
        ] );
    ]
