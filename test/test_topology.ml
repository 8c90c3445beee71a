(* lib/topology tests: graph laws (regularity, symmetry, connectivity,
   determinism) as qcheck properties, the security calculation, the
   share_at/share bit-compatibility, Vsss partial-share recovery, the
   wire-v2 commit codec, and differential end-to-end runs of the
   k-regular commit/agg path against the all-to-all reference —
   including the k = n−1 normalization anchor, agg-stage dropout
   recovery, streamed rounds and crash/resume. *)

module Topology = Risefl_topology.Topology
module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Driver = Risefl_core.Driver
module Server = Risefl_core.Server
module Client = Risefl_core.Client
module Serial = Risefl_core.Serial
module Wire = Risefl_core.Wire
module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Round_log = Risefl_core.Round_log

let fail fmt = Printf.ksprintf (fun s -> Alcotest.fail s) fmt

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let cohort n = Array.init n (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* graph laws *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 4 48 in
    let* degree = int_range 2 (n - 1) in
    let* round = int_range 1 5 in
    return (n, degree, round))

let make_graph (n, degree, round) =
  Topology.make ~seed:"topo-prop" ~round ~cohort:(cohort n) ~degree

let graph_props =
  [
    prop "k-regular: every node has the same degree" gen_graph (fun ((n, degree, _) as g) ->
        let t = make_graph g in
        let k = Topology.degree t in
        k >= min (max 2 degree) (n - 1)
        && Array.for_all
             (fun i -> Array.length (Topology.neighbors t i) = k)
             (cohort n));
    prop "symmetric, no self-loops" gen_graph (fun ((n, _, _) as g) ->
        let t = make_graph g in
        Array.for_all
          (fun i ->
            (not (Topology.is_neighbor t i i))
            && Array.for_all (fun j -> Topology.is_neighbor t j i) (Topology.neighbors t i))
          (cohort n));
    prop "connected" gen_graph (fun ((n, _, _) as g) ->
        let t = make_graph g in
        let seen = Array.make (n + 1) false in
        let q = Queue.create () in
        Queue.add 1 q;
        seen.(1) <- true;
        let count = ref 1 in
        while not (Queue.is_empty q) do
          let i = Queue.pop q in
          Array.iter
            (fun j ->
              if not seen.(j) then begin
                seen.(j) <- true;
                incr count;
                Queue.add j q
              end)
            (Topology.neighbors t i)
        done;
        !count = n);
    prop "deterministic in (seed, round, cohort, degree)" gen_graph (fun g ->
        let a = make_graph g and b = make_graph g in
        Bytes.equal (Topology.digest a) (Topology.digest b)
        && Array.for_all
             (fun i -> Topology.neighbors a i = Topology.neighbors b i)
             (cohort (let n, _, _ = g in n)));
    prop "digest separates rounds" gen_graph (fun (n, degree, round) ->
        let a = make_graph (n, degree, round) and b = make_graph (n, degree, round + 1) in
        not (Bytes.equal (Topology.digest a) (Topology.digest b)));
    prop "neighborhood-majority threshold" gen_graph (fun g ->
        let t = make_graph g in
        Topology.threshold t = (Topology.degree t / 2) + 1);
  ]

let test_plan_normalization () =
  let n = 10 in
  let plan mode = Topology.plan ~mode ~seed:"s" ~round:1 ~cohort:(cohort n) in
  if plan Topology.Full <> None then fail "Full must plan to None";
  if plan (Topology.Kregular (n - 1)) <> None then fail "k = n-1 must normalize to full";
  if plan (Topology.Kregular 1000) <> None then fail "k >= n must normalize to full";
  if Topology.plan ~mode:(Topology.Kregular 2) ~seed:"s" ~round:1 ~cohort:(cohort 2) <> None
  then fail "n <= 2 must normalize to full";
  match plan (Topology.Kregular 4) with
  | None -> fail "small k must produce a real graph"
  | Some t ->
      if Topology.degree t < 4 then fail "planned degree below request";
      if Topology.n t <> n then fail "planned size wrong"

let test_mode_strings () =
  let roundtrip m =
    match Topology.mode_of_string (Topology.mode_to_string m) with
    | Some m' when m' = m -> ()
    | _ -> fail "mode %s did not round-trip" (Topology.mode_to_string m)
  in
  roundtrip Topology.Full;
  roundtrip (Topology.Kregular 6);
  (match Topology.mode_of_string "kregular" with
  | Some (Topology.Kregular 0) -> ()
  | _ -> fail "bare 'kregular' should parse as auto-degree");
  if Topology.mode_of_string "hypercube" <> None then fail "junk mode parsed"

let test_recommend_degree () =
  let k n sigma =
    Topology.recommend_degree ~n ~dropout:0.05 ~corruption:0.2 ~sigma
  in
  let k100 = k 100 40 in
  if k100 < 2 || k100 > 99 then fail "recommended degree out of range: %d" k100;
  if k100 <> k 100 40 then fail "recommendation not deterministic";
  if k 100 60 < k 100 20 then fail "recommendation not monotone in sigma";
  (* a tiny cohort cannot meet 2^-40 bounds below all-to-all *)
  if k 4 40 <> 3 then fail "tiny cohort should recommend n-1";
  (* the binomial bound depends only on (delta, gamma, sigma), so once n
     is large enough that the n-1 clamp does not bite, the required
     degree is flat as n doubles — that is the whole point of the
     topology *)
  let k500 = k 500 40 and k1000 = k 1000 40 in
  if k500 >= 499 then fail "k500=%d still clamped; test parameters too hostile" k500;
  if k1000 <> k500 then fail "degree should not grow with n (k500=%d k1000=%d)" k500 k1000

(* ------------------------------------------------------------------ *)
(* share_at / share compatibility and partial-share recovery *)

let g_pt = Point.mul_base (Scalar.of_int 7919)

let test_share_at_equiv () =
  let secret = Scalar.of_int 123_456 in
  let d1 = Prng.Drbg.create_string "share-at-equiv" in
  let d2 = Prng.Drbg.create_string "share-at-equiv" in
  let s1, c1 = Vsss.share d1 ~secret ~n:7 ~t:4 ~g:g_pt in
  let s2, c2 = Vsss.share_at d2 ~secret ~xs:(Array.init 7 (fun i -> i + 1)) ~t:4 ~g:g_pt in
  if not (Array.for_all2 Point.equal c1 c2) then fail "check strings differ";
  Array.iter2
    (fun (a : Vsss.share) (b : Vsss.share) ->
      if a.Vsss.idx <> b.Vsss.idx || not (Scalar.equal a.Vsss.value b.Vsss.value) then
        fail "share_at over 1..n is not bit-identical to share")
    s1 s2

let test_share_at_validation () =
  let secret = Scalar.of_int 5 in
  let mk xs t =
    ignore (Vsss.share_at (Prng.Drbg.create_string "v") ~secret ~xs ~t ~g:g_pt)
  in
  (match mk [| 1; 2; 2 |] 2 with
  | () -> fail "duplicate evaluation points accepted"
  | exception Invalid_argument _ -> ());
  (match mk [| 0; 1 |] 2 with
  | () -> fail "evaluation point 0 accepted"
  | exception Invalid_argument _ -> ());
  match mk [| 1; 2 |] 3 with
  | () -> fail "t > |xs| accepted"
  | exception Invalid_argument _ -> ()

let gen_sharing =
  QCheck2.Gen.(
    let* n = int_range 3 10 in
    let* t = int_range 2 n in
    let* secret = int_range 1 1_000_000 in
    let* salt = int_range 0 1000 in
    return (n, t, secret, salt))

let make_sharing (n, t, secret, salt) =
  let drbg = Prng.Drbg.create_string (Printf.sprintf "vsss-prop/%d" salt) in
  let shares, check = Vsss.share drbg ~secret:(Scalar.of_int secret) ~n ~t ~g:g_pt in
  (shares, check, Scalar.of_int secret)

let vsss_props =
  [
    prop "any exactly-threshold subset recovers" gen_sharing (fun ((n, t, _, _) as c) ->
        let shares, _, secret = make_sharing c in
        let subset off = List.init t (fun i -> shares.((off + i) mod n)) in
        List.for_all
          (fun off -> Scalar.equal secret (Vsss.recover (subset off)))
          [ 0; 1; n - t ]);
    prop "threshold-1 shares reconstruct garbage" gen_sharing (fun ((_, t, _, _) as c) ->
        let shares, _, secret = make_sharing c in
        let partial = List.init (t - 1) (fun i -> shares.(i)) in
        (* one share of a degree>=1 polynomial never satisfies f(0) *)
        match Vsss.recover partial with
        | v -> not (Scalar.equal secret v)
        | exception Invalid_argument _ -> t - 1 = 0);
    prop "duplicate shares rejected" gen_sharing (fun ((_, t, _, _) as c) ->
        let shares, _, _ = make_sharing c in
        let dup = shares.(0) :: List.init (t - 1) (fun i -> shares.(i)) in
        match Vsss.recover dup with
        | _ -> false
        | exception Invalid_argument _ -> true);
    prop "every share verifies; a tampered one does not" gen_sharing (fun c ->
        let shares, check, _ = make_sharing c in
        Array.for_all (fun s -> Vsss.verify ~g:g_pt ~check s) shares
        && not
             (Vsss.verify ~g:g_pt ~check
                {
                  shares.(0) with
                  Vsss.value = Scalar.add shares.(0).Vsss.value Scalar.one;
                }));
  ]

let test_recover_empty () =
  match Vsss.recover [] with
  | _ -> fail "empty share list accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* wire v2 *)

let params5 = Params.make ~n_clients:5 ~max_malicious:1 ~d:8 ~k:3 ~m_factor:64.0 ~bound_b:300.0 ()
let setup5 = Setup.create ~label:"test-topology-5" params5
let updates_of n d = Array.init n (fun i -> Array.init d (fun l -> ((i * l) mod 7) - 3))

let test_wire_v2 () =
  let session = Driver.create_session setup5 ~seed:"wire-v2" in
  let clients = Driver.session_clients session in
  let updates = updates_of 5 8 in
  let topo = Topology.make ~seed:"wire-v2" ~round:1 ~cohort:(cohort 5) ~degree:2 in
  (* v1: no digest, magic 0xC1 *)
  let v1 = Client.commit_round clients.(0) ~round:1 ~update:updates.(0) in
  let b1 = Serial.encode_commit_msg v1 in
  if Char.code (Bytes.get b1 0) <> 0xC1 then fail "v1 magic wrong";
  if (Serial.decode_commit_msg b1).Wire.topo_digest <> None then fail "v1 grew a digest";
  (* v2: digest present, magic 0xC8, neighbor-count shares *)
  let v2 = Client.commit_round ~topo clients.(1) ~round:1 ~update:updates.(1) in
  let b2 = Serial.encode_commit_msg v2 in
  if Char.code (Bytes.get b2 0) <> 0xC8 then fail "v2 magic wrong";
  if Array.length v2.Wire.enc_shares <> Topology.degree topo then
    fail "v2 commit carries %d shares, expected k=%d" (Array.length v2.Wire.enc_shares)
      (Topology.degree topo);
  let dec = Serial.decode_commit_msg b2 in
  (match dec.Wire.topo_digest with
  | Some d when Bytes.equal d (Topology.digest topo) -> ()
  | Some _ -> fail "v2 digest mangled in transit"
  | None -> fail "v2 digest dropped");
  if not (Bytes.equal (Serial.encode_commit_msg dec) b2) then fail "v2 re-encode not canonical";
  (* truncations die, as does a v2 body relabeled v1 *)
  for cut = 0 to Bytes.length b2 - 1 do
    match Serial.decode_commit (Bytes.sub b2 0 cut) with
    | Ok _ -> fail "truncation at %d accepted" cut
    | Error _ -> ()
  done;
  let relabeled = Bytes.copy b2 in
  Bytes.set relabeled 0 (Char.chr 0xC1);
  match Serial.decode_commit relabeled with
  | Ok _ -> fail "v2 body with v1 magic accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* end-to-end differentials *)

let n8 = 8
let d8 = 8
let params8 = Params.make ~n_clients:n8 ~max_malicious:1 ~d:d8 ~k:3 ~m_factor:64.0 ~bound_b:300.0 ()
let setup8 = Setup.create ~label:"test-topology-8" params8
let updates8 = updates_of n8 d8

let run_one ?stream ?wal ?crash ~topology ~behaviours () =
  let session = Driver.create_session setup8 ~seed:"topo-e2e" in
  ( Driver.run_round_outcome ?stream ?wal ?crash ~topology session ~updates:updates8 ~behaviours
      ~round:1,
    session )

let agg_of outcome =
  match outcome with
  | Driver.Completed stats -> stats.Driver.aggregate
  | o -> fail "round did not complete: %s" (Driver.outcome_to_string o)

let reference_agg =
  lazy (agg_of (fst (run_one ~topology:Topology.Full ~behaviours:(Driver.honest_all n8) ())))

let test_full_vs_kregular_honest () =
  let full = Lazy.force reference_agg in
  if full = None then fail "reference aggregate missing";
  List.iter
    (fun k ->
      let got =
        agg_of (fst (run_one ~topology:(Topology.Kregular k) ~behaviours:(Driver.honest_all n8) ()))
      in
      if got <> full then fail "kregular k=%d aggregate differs from full" k)
    [ 3; 4; 5 ]

(* the correctness anchor: k = n-1 IS the all-to-all path *)
let test_max_degree_bit_identity () =
  let full, _ = run_one ~topology:Topology.Full ~behaviours:(Driver.honest_all n8) () in
  let kmax, _ =
    run_one ~topology:(Topology.Kregular (n8 - 1)) ~behaviours:(Driver.honest_all n8) ()
  in
  (match (full, kmax) with
  | Driver.Completed a, Driver.Completed b ->
      if a.Driver.aggregate <> b.Driver.aggregate then fail "k=n-1 aggregate differs";
      if a.Driver.flagged <> b.Driver.flagged then fail "k=n-1 C* differs";
      if a.Driver.client_up_bytes <> b.Driver.client_up_bytes then
        fail "k=n-1 up-bytes differ: wire path diverged";
      if a.Driver.client_down_bytes <> b.Driver.client_down_bytes then
        fail "k=n-1 down-bytes differ: wire path diverged"
  | _ -> fail "round aborted");
  (* and the commit bytes themselves are v1, byte for byte *)
  let commit topo_mode =
    let session = Driver.create_session setup8 ~seed:"topo-e2e" in
    let topo =
      Topology.plan ~mode:topo_mode ~seed:"topo-e2e" ~round:1 ~cohort:(cohort n8)
    in
    Serial.encode_commit_msg
      (Client.commit_round ?topo (Driver.session_clients session).(0) ~round:1
         ~update:updates8.(0))
  in
  if not (Bytes.equal (commit Topology.Full) (commit (Topology.Kregular (n8 - 1)))) then
    fail "k=n-1 commit bytes differ from full"

(* seeded dropout ladder: every agg-stage dropout is recovered from its
   neighborhood, so the aggregate still includes its update — i.e. it
   equals the honest full-topology aggregate *)
let test_agg_dropout_recovery () =
  let full = Lazy.force reference_agg in
  List.iter
    (fun dropouts ->
      let behaviours = Driver.honest_all n8 in
      List.iter (fun i -> behaviours.(i - 1) <- Driver.Agg_silent) dropouts;
      let got = agg_of (fst (run_one ~topology:(Topology.Kregular 4) ~behaviours ())) in
      if got <> full then
        fail "aggregate with recovered dropouts [%s] differs from honest run"
          (String.concat ";" (List.map string_of_int dropouts)))
    [ [ 1 ]; [ 4 ]; [ 8 ]; [ 2; 6 ]; [ 3; 4 ] ]

let test_bad_agg_share_kregular () =
  let behaviours = Driver.honest_all n8 in
  behaviours.(2) <- Driver.Bad_agg_share;
  match fst (run_one ~topology:(Topology.Kregular 4) ~behaviours ()) with
  | Driver.Completed stats -> (
      match stats.Driver.failure with
      | Some Server.Aggregate_mismatch -> ()
      | Some e ->
          fail "expected Aggregate_mismatch, got %s" (Server.agg_error_to_string e)
      | None -> fail "tampered masked sum slipped through the commitment check")
  | o -> fail "unexpected outcome: %s" (Driver.outcome_to_string o)

let test_streamed_kregular () =
  let full = Lazy.force reference_agg in
  let behaviours = Driver.honest_all n8 in
  behaviours.(5) <- Driver.Agg_silent;
  let stream = Server.stream_cfg ~shards:2 ~batch:3 () in
  let got = agg_of (fst (run_one ~stream ~topology:(Topology.Kregular 4) ~behaviours ())) in
  if got <> full then fail "streamed kregular aggregate differs from honest full run"

let test_crash_resume_kregular () =
  let behaviours = Driver.honest_all n8 in
  behaviours.(3) <- Driver.Agg_silent;
  let topology = Topology.Kregular 4 in
  let uncrashed = agg_of (fst (run_one ~topology ~behaviours ())) in
  let wal_path = Filename.temp_file "test-topology" ".wal" in
  let wal = Round_log.create ~fsync:false wal_path in
  let outcome, session =
    match run_one ~wal ~crash:(Netsim.Proof, Driver.Stage_frame 2) ~topology ~behaviours () with
    | outcome, session -> (outcome, session)
    | exception Driver.Server_crashed _ ->
        let session = Driver.create_session setup8 ~seed:"topo-e2e" in
        let records, _ = Round_log.replay wal_path in
        ( Driver.recover_round ~wal ~topology session ~records ~updates:updates8 ~behaviours
            ~round:1,
          session )
  in
  ignore session;
  Round_log.close wal;
  Sys.remove wal_path;
  if agg_of outcome <> uncrashed then
    fail "kregular crash/resume aggregate differs from uncrashed run"

(* A flipped byte can decode to a point with a small-order component.
   The proof stage must still end in a typed outcome, and the verdicts
   must not depend on how the stage is batched: the default round (one
   shard, one batch) and small sharded batches agree on the aggregate and C*. *)
let test_netsim_faults_kregular () =
  let plan =
    match Netsim.plan_of_string "drop=0.1,flip=0.05,dup=0.05,trunc=0.05" with
    | Ok p -> p
    | Error e -> fail "bad plan: %s" e
  in
  let run ?stream () =
    let net = Netsim.create ~plan ~deadline:4 ~seed:"topo-faults" () in
    let session = Driver.create_session setup8 ~seed:"topo-e2e" in
    Driver.run_round_outcome ~endpoint:(Netsim.endpoint net) ?stream
      ~topology:(Topology.Kregular 4) session
      ~updates:updates8 ~behaviours:(Driver.honest_all n8) ~round:1
  in
  let a = run () and b = run ~stream:(Server.stream_cfg ~shards:2 ~batch:2 ()) () in
  match (a, b) with
  | Driver.Completed sa, Driver.Completed sb ->
      if sa.Driver.aggregate <> sb.Driver.aggregate || sa.Driver.flagged <> sb.Driver.flagged
      then fail "faulted kregular round depends on the stream batching"
  | oa, ob ->
      if Driver.outcome_to_string oa <> Driver.outcome_to_string ob then
        fail "faulted kregular outcomes diverge across stream batching"

let () =
  Alcotest.run "topology"
    [
      ("graph-laws", graph_props);
      ( "planning",
        [
          Alcotest.test_case "plan normalization" `Quick test_plan_normalization;
          Alcotest.test_case "mode strings" `Quick test_mode_strings;
          Alcotest.test_case "recommend_degree" `Quick test_recommend_degree;
        ] );
      ( "vsss",
        [
          Alcotest.test_case "share_at == share over 1..n" `Quick test_share_at_equiv;
          Alcotest.test_case "share_at validation" `Quick test_share_at_validation;
          Alcotest.test_case "recover []" `Quick test_recover_empty;
        ]
        @ vsss_props );
      ("wire", [ Alcotest.test_case "commit v1/v2 codec" `Quick test_wire_v2 ]);
      ( "e2e",
        [
          Alcotest.test_case "full vs kregular (honest)" `Slow test_full_vs_kregular_honest;
          Alcotest.test_case "k=n-1 bit-identity" `Slow test_max_degree_bit_identity;
          Alcotest.test_case "agg dropout recovery ladder" `Slow test_agg_dropout_recovery;
          Alcotest.test_case "bad masked sum -> mismatch" `Slow test_bad_agg_share_kregular;
          Alcotest.test_case "streamed kregular" `Slow test_streamed_kregular;
          Alcotest.test_case "crash/resume kregular" `Slow test_crash_resume_kregular;
          Alcotest.test_case "netsim faults kregular" `Slow test_netsim_faults_kregular;
        ] );
    ]
