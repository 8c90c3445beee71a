(* End-to-end RiseFL protocol tests: honest aggregation is exact; each
   malicious behaviour from the threat model (§3.2) is handled as the
   paper specifies; the relaxed-SAVI semantics of Definition 1 (slightly
   oversized updates pass, grossly oversized ones are rejected) are
   observable. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Sampling = Risefl_core.Sampling
module Channel = Risefl_core.Channel
module Wire = Risefl_core.Wire
module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

let params =
  Params.make ~n_clients:5 ~max_malicious:1 ~d:16 ~k:4 ~m_factor:64.0 ~bound_b:1000.0 ()

let setup = Setup.create ~label:"test-protocol" params

let drbg = Prng.Drbg.create_string "test-protocol"

(* deterministic small updates, norm well within bound *)
let mk_updates n d =
  Array.init n (fun i -> Array.init d (fun l -> ((i * 31) + (l * 7) + 3) mod 200 - 100))

let sum_updates updates idxs =
  let d = Array.length updates.(0) in
  Array.init d (fun l -> List.fold_left (fun acc i -> acc + updates.(i - 1).(l)) 0 idxs)

let check_agg msg expected = function
  | None -> Alcotest.fail (msg ^ ": aggregation failed")
  | Some agg -> Alcotest.(check (array int)) msg expected agg

(* --- full iterations --- *)

let one_shot ?serialize ~updates ~behaviours seed =
  Driver.completed_exn
    (Driver.run_round_outcome ?serialize (Driver.create_session setup ~seed) ~updates ~behaviours
       ~round:1)

let test_honest_run () =
  let updates = mk_updates 5 16 in
  let stats =
    one_shot ~updates ~behaviours:(Driver.honest_all 5) "honest"
  in
  Alcotest.(check (list int)) "nobody flagged" [] stats.Driver.flagged;
  check_agg "exact sum" (sum_updates updates [ 1; 2; 3; 4; 5 ]) stats.Driver.aggregate;
  Alcotest.(check bool) "commit time measured" true (stats.Driver.client_commit_s > 0.0);
  Alcotest.(check bool) "comm accounted" true (stats.Driver.client_up_bytes > 0)

let test_grossly_oversized_rejected () =
  let updates = mk_updates 5 16 in
  (* client 3 scales its update to ~100x the bound B: with k = 4 the pass
     rate F(100) ~ 1e-5, so rejection is near-certain *)
  let norm = Encoding.Fixed_point.l2_norm_encoded updates.(2) in
  let factor = int_of_float (Float.round (100.0 *. params.Params.bound_b /. norm)) in
  updates.(2) <- Array.map (fun x -> factor * x) updates.(2);
  let behaviours = Driver.honest_all 5 in
  behaviours.(2) <- Driver.Oversized 100.0;
  let stats = one_shot ~updates ~behaviours "oversized" in
  Alcotest.(check (list int)) "client 3 flagged" [ 3 ] stats.Driver.flagged;
  check_agg "sum excludes attacker" (sum_updates updates [ 1; 2; 4; 5 ]) stats.Driver.aggregate

let test_slightly_oversized_passes () =
  (* Definition 1's relaxation: at ||u|| = 2B with k = 4 the pass rate
     F(2) is ~1, so the update slips in — but its damage is bounded *)
  let updates = mk_updates 5 16 in
  updates.(2) <- Array.map (fun x -> 2 * x) updates.(2);
  let behaviours = Driver.honest_all 5 in
  behaviours.(2) <- Driver.Oversized 2.0;
  let stats = one_shot ~updates ~behaviours "slight" in
  Alcotest.(check (list int)) "passes the relaxed check" [] stats.Driver.flagged;
  check_agg "included" (sum_updates updates [ 1; 2; 3; 4; 5 ]) stats.Driver.aggregate

let test_bad_shares_to_everyone () =
  let updates = mk_updates 5 16 in
  let behaviours = Driver.honest_all 5 in
  behaviours.(1) <- Driver.Bad_share_to [ 1; 3; 4; 5 ];
  let stats = one_shot ~updates ~behaviours "badshares" in
  (* flagged by 4 > m = 1 clients: rule 1 *)
  Alcotest.(check (list int)) "dealer flagged" [ 2 ] stats.Driver.flagged;
  check_agg "excluded" (sum_updates updates [ 1; 3; 4; 5 ]) stats.Driver.aggregate

let test_bad_share_to_one_rule2 () =
  let updates = mk_updates 5 16 in
  let behaviours = Driver.honest_all 5 in
  (* corrupt only client 4's share: one flag -> rule 2 -> dealer reveals the
     true share, stays honest, and the server forwards it to client 4 *)
  behaviours.(1) <- Driver.Bad_share_to [ 4 ] [@warning "-a"];
  let stats = one_shot ~updates ~behaviours "rule2" in
  Alcotest.(check (list int)) "nobody flagged (share recovered in clear)" [] stats.Driver.flagged;
  check_agg "full sum" (sum_updates updates [ 1; 2; 3; 4; 5 ]) stats.Driver.aggregate

let test_false_flags_neutralized () =
  let updates = mk_updates 5 16 in
  let behaviours = Driver.honest_all 5 in
  (* client 5 falsely accuses client 1: rule 2 clears client 1 *)
  behaviours.(4) <- Driver.False_flags [ 1 ];
  let stats = one_shot ~updates ~behaviours "falseflag" in
  Alcotest.(check (list int)) "honest client survives" [] stats.Driver.flagged;
  check_agg "full sum" (sum_updates updates [ 1; 2; 3; 4; 5 ]) stats.Driver.aggregate

let test_dropout () =
  let updates = mk_updates 5 16 in
  let behaviours = Driver.honest_all 5 in
  behaviours.(3) <- Driver.Drop_out;
  let stats = one_shot ~updates ~behaviours "dropout" in
  Alcotest.(check (list int)) "dropout flagged" [ 4 ] stats.Driver.flagged;
  check_agg "rest aggregated" (sum_updates updates [ 1; 2; 3; 5 ]) stats.Driver.aggregate

let test_bad_agg_share_tolerated () =
  (* a malicious client corrupts its round-3 aggregated share; the server
     rejects it via SS.Verify against the combined check string and still
     recovers the sum from the remaining shares (>= t = m+1) *)
  let updates = mk_updates 5 16 in
  let behaviours = Driver.honest_all 5 in
  behaviours.(2) <- Driver.Bad_agg_share;
  let stats = one_shot ~updates ~behaviours "badagg" in
  (* the client passed commitments and proofs honestly, so it is in H and
     its update IS included; only its share was corrupted *)
  Alcotest.(check (list int)) "not flagged" [] stats.Driver.flagged;
  check_agg "sum still recovered" (sum_updates updates [ 1; 2; 3; 4; 5 ]) stats.Driver.aggregate

let test_reveal_shares_caps_requests () =
  (* §4.4.1: a client receiving more than m clear-share requests marks the
     server as malicious and quits *)
  let session_drbg = Prng.Drbg.create_string "caps" in
  let client = Risefl_core.Client.create setup ~id:1 session_drbg in
  let pks = Array.init 5 (fun i -> Point.mul_base (Scalar.of_int (i + 2))) in
  Risefl_core.Client.install_directory client pks;
  ignore (Risefl_core.Client.commit_round client ~round:1 ~update:(Array.make 16 0));
  (* m = 1: one request is fine, two must raise *)
  Alcotest.(check int) "one request ok" 1
    (List.length (Risefl_core.Client.reveal_shares client ~requests:[ 2 ]));
  Alcotest.check_raises "two requests rejected"
    (Risefl_core.Client.Server_misbehaving "server requested more than m clear shares") (fun () ->
      ignore (Risefl_core.Client.reveal_shares client ~requests:[ 2; 3 ]))

let test_serialized_wire_run () =
  (* the full iteration with every message crossing the binary codecs *)
  let updates = mk_updates 5 16 in
  let stats =
    one_shot ~serialize:true ~updates ~behaviours:(Driver.honest_all 5) "serialized"
  in
  Alcotest.(check (list int)) "nobody flagged" [] stats.Driver.flagged;
  check_agg "exact sum over the wire" (sum_updates updates [ 1; 2; 3; 4; 5 ]) stats.Driver.aggregate

(* --- the driver's client steps, one case per behaviour --- *)

(* a session whose clients all commit round 1 honestly through the
   driver's steps; two sessions on one seed draw identical randomness *)
let committed seed =
  let session = Driver.create_session setup ~seed in
  let clients = Driver.session_clients session in
  let v = Driver.round_view session ~round:1 in
  let updates = mk_updates 5 16 in
  let commits =
    Array.mapi
      (fun i c -> Option.get (Driver.commit_step v Driver.Honest c ~update:updates.(i)))
      clients
  in
  (v, clients, commits)

(* ... and then verify their shares honestly *)
let flagged seed =
  let v, clients, commits = committed seed in
  Array.iter (fun c -> ignore (Driver.flag_step v Driver.Honest c ~commits)) clients;
  (v, clients)

let test_step_oversized () =
  let session = Driver.create_session setup ~seed:"step-oversized" in
  let c = (Driver.session_clients session).(0) in
  let v = Driver.round_view session ~round:1 in
  let update = Array.make 16 1_000_000 in
  (match Driver.commit_step v Driver.Honest c ~update with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an honest client committed an update over the bound");
  Alcotest.(check bool) "oversized commits unchecked" true
    (Option.is_some (Driver.commit_step v (Driver.Oversized 50.0) c ~update))

let test_step_bad_share_to () =
  (* dealer 1 corrupts the shares sealed to [targets]: over the full
     universe, and in an epoch where client 3 has left, where the shares
     sit at cohort rank rather than at position id-1 *)
  List.iter
    (fun (seed, left, targets) ->
      let round_view session =
        let epoch =
          if left = [] then None
          else
            let pks = Array.map Risefl_core.Client.public_key (Driver.session_clients session) in
            Some
              (Risefl_core.Membership.advance (Risefl_core.Membership.create pks) ~round:1
                 ~events:(List.map (fun i -> Risefl_core.Membership.Leave i) left)
                 ~rotation_for:(fun ~id:_ ~gen:_ -> None))
        in
        Driver.round_view ?epoch session ~round:1
      in
      (* every cohort member commits; dealer 1 behaves as [b1] *)
      let run b1 =
        let session = Driver.create_session setup ~seed in
        let v = round_view session in
        let clients = Driver.session_clients session in
        let updates = mk_updates 5 16 in
        let commits =
          Array.to_list clients
          |> List.mapi (fun i c ->
                 Driver.commit_step v (if i = 0 then b1 else Driver.Honest) c ~update:updates.(i))
          |> List.filter_map Fun.id |> Array.of_list
        in
        (v, clients, commits)
      in
      let _, _, honest = run Driver.Honest in
      let v, clients, commits = run (Driver.Bad_share_to targets) in
      let bad = commits.(0) in
      Array.iteri
        (fun r (s : Channel.sealed) ->
          let id = v.Driver.cohort.(r) in
          let same = Bytes.equal s.Channel.body honest.(0).Wire.enc_shares.(r).Channel.body in
          Alcotest.(check bool) (Printf.sprintf "%s: share to %d intact" seed id)
            (not (List.mem id targets)) same)
        bad.Wire.enc_shares;
      Alcotest.(check bool) (seed ^ ": commitments untouched") true
        (Array.for_all2 Point.equal honest.(0).Wire.y bad.Wire.y);
      Array.iter
        (fun c ->
          Option.iter
            (fun (f : Wire.flag_msg) ->
              let id = Risefl_core.Client.id c in
              Alcotest.(check (list int)) (Printf.sprintf "%s: client %d suspects" seed id)
                (if List.mem id targets then [ 1 ] else [])
                f.Wire.suspects)
            (Driver.flag_step v Driver.Honest c ~commits))
        clients)
    [ ("step-badshare", [], [ 2; 4 ]); ("step-badshare-cohort", [ 3 ], [ 4 ]) ]

let test_step_false_flags () =
  let v, clients, commits = committed "step-falseflag" in
  (* dealer 2 sends client 3 a corrupt share: client 3's own suspect *)
  let body = Bytes.copy commits.(1).Wire.enc_shares.(2).Channel.body in
  Bytes.set body 0 (Char.chr (Char.code (Bytes.get body 0) lxor 0xff));
  let enc_shares = Array.copy commits.(1).Wire.enc_shares in
  enc_shares.(2) <- { enc_shares.(2) with Channel.body };
  commits.(1) <- { (commits.(1)) with Wire.enc_shares };
  let flag = Option.get (Driver.flag_step v (Driver.False_flags [ 4; 2 ]) clients.(2) ~commits) in
  Alcotest.(check (list int)) "own suspect merged with the false ones" [ 2; 4 ] flag.Wire.suspects

let test_step_agg () =
  let honest = [ 1; 2; 3; 4; 5 ] in
  let agg seed b ~malicious =
    let v, clients = flagged seed in
    Driver.agg_step v b clients.(2) ~honest ~malicious
  in
  let good = Option.get (agg "step-agg" Driver.Honest ~malicious:[]) in
  let bad = Option.get (agg "step-agg" Driver.Bad_agg_share ~malicious:[]) in
  Alcotest.(check bool) "r_sum plus one" true
    (Scalar.equal bad.Wire.r_sum (Scalar.add good.Wire.r_sum Scalar.one));
  Alcotest.(check bool) "agg-silent sends nothing" true
    (agg "step-agg" Driver.Agg_silent ~malicious:[] = None);
  Alcotest.(check bool) "a convicted client sends nothing" true
    (agg "step-agg" Driver.Honest ~malicious:[ 3 ] = None)

let test_step_reveal_cap () =
  let v, clients, _ = committed "step-reveal" in
  Alcotest.(check int) "m shares revealed" 1
    (List.length (Option.get (Driver.reveal_step v Driver.Honest clients.(0) ~requests:[ 2 ])));
  Alcotest.(check bool) "more than m refused" true
    (Driver.reveal_step v Driver.Honest clients.(0) ~requests:[ 2; 3 ] = None)

(* --- params --- *)

let test_params_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (msg ^ ": should have been rejected")
  in
  expect_invalid "m >= n/2" (fun () ->
      Params.make ~n_clients:4 ~max_malicious:2 ~d:8 ~k:4 ~bound_b:10.0 ());
  expect_invalid "bad b_ip" (fun () ->
      Params.make ~b_ip_bits:24 ~n_clients:5 ~max_malicious:1 ~d:8 ~k:4 ~bound_b:10.0 ());
  expect_invalid "overflow risk" (fun () ->
      Params.make ~b_ip_bits:64 ~b_max_bits:64 ~n_clients:5 ~max_malicious:1 ~d:8 ~k:4 ~bound_b:10.0 ());
  expect_invalid "bound too large for sigma range" (fun () ->
      Params.make ~b_ip_bits:16 ~n_clients:5 ~max_malicious:1 ~d:8 ~k:4 ~m_factor:1024.0
        ~bound_b:1.0e6 ())

let test_b0_magnitude () =
  (* B0 >= B^2 M^2 gamma, and fits in b_max bits *)
  let b0 = Params.b0 params in
  let gamma = Params.gamma params in
  let lower = 1000.0 ** 2.0 *. (64.0 ** 2.0) *. gamma in
  Alcotest.(check bool) "lower bound" true (Bigint.compare b0 (Bigint.of_int (int_of_float lower)) >= 0);
  Alcotest.(check bool) "fits" true (Bigint.bit_length b0 <= params.Params.b_max_bits)

(* --- sampling --- *)

let test_sampling_deterministic () =
  let pks = Array.init 3 (fun i -> Point.mul_base (Scalar.of_int (i + 7))) in
  let s = Bytes.make 32 'x' in
  let seed1 = Sampling.seed ~s ~pks in
  let seed2 = Sampling.seed ~s ~pks in
  Alcotest.(check bool) "seed deterministic" true (Bytes.equal seed1 seed2);
  let m1 = Sampling.sample_matrix ~seed:seed1 ~d:10 ~k:3 ~m_factor:32.0 in
  let m2 = Sampling.sample_matrix ~seed:seed2 ~d:10 ~k:3 ~m_factor:32.0 in
  Alcotest.(check bool) "a0 equal" true
    (Array.for_all2 Scalar.equal m1.Sampling.a0 m2.Sampling.a0);
  Alcotest.(check bool) "rows equal" true (m1.Sampling.rows = m2.Sampling.rows);
  (* different s -> different matrix *)
  let seed3 = Sampling.seed ~s:(Bytes.make 32 'y') ~pks in
  let m3 = Sampling.sample_matrix ~seed:seed3 ~d:10 ~k:3 ~m_factor:32.0 in
  Alcotest.(check bool) "differs" false (m1.Sampling.rows = m3.Sampling.rows)

let test_ver_crt_accepts_and_rejects () =
  let d = 12 and k = 3 in
  let m = Sampling.sample_matrix ~seed:(Bytes.make 32 'z') ~d ~k ~m_factor:32.0 in
  let sub_setup =
    Setup.create ~label:"test-vercrt"
      (Params.make ~n_clients:3 ~max_malicious:1 ~d ~k ~m_factor:32.0 ~bound_b:100.0 ())
  in
  let hs = Sampling.compute_h sub_setup m in
  Alcotest.(check bool) "accepts honest h" true
    (Sampling.ver_crt drbg ~bases:sub_setup.Setup.w ~targets:hs ~matrix:m);
  (* a single corrupted h_t must be caught *)
  let bad = Array.copy hs in
  bad.(2) <- Point.add bad.(2) Point.base;
  Alcotest.(check bool) "rejects corrupted h" false
    (Sampling.ver_crt drbg ~bases:sub_setup.Setup.w ~targets:bad ~matrix:m)

let test_project_exact () =
  let d = 8 in
  let m = Sampling.sample_matrix ~seed:(Bytes.make 32 'p') ~d ~k:2 ~m_factor:16.0 in
  let u = Array.init d (fun l -> l - 4) in
  let _, vs = Sampling.project m u in
  Array.iteri
    (fun t v ->
      let expected = Array.fold_left ( + ) 0 (Array.mapi (fun l a -> a * u.(l)) m.Sampling.rows.(t)) in
      Alcotest.(check int) (Printf.sprintf "row %d" t) expected v)
    vs

(* --- cost model (Table 1) --- *)

let test_cost_model_shapes () =
  let module CM = Risefl_core.Cost_model in
  let cfg d = { CM.n = 100; m = 10; d; k = 1000; b = 16; log_m_factor = 24; log_p = 253 } in
  let at_100k = cfg 100_000 in
  let r = CM.risefl at_100k and ro = CM.rofl at_100k and ac = CM.acorn at_100k and ei = CM.eiffel at_100k in
  (* the paper's headline separations at d = 100K *)
  Alcotest.(check bool) "RiseFL proof gen << RoFL" true
    (r.CM.client_proof_gen_ge *. 100.0 < ro.CM.client_proof_gen_ge);
  Alcotest.(check bool) "RiseFL proof gen << ACORN" true
    (r.CM.client_proof_gen_ge *. 10.0 < ac.CM.client_proof_gen_ge);
  Alcotest.(check bool) "EIFFeL comm >> RiseFL (3 orders)" true
    (ei.CM.comm_elements_per_client > 1000.0 *. r.CM.comm_elements_per_client);
  Alcotest.(check bool) "EIFFeL server ~ 0" true (ei.CM.server_proof_ver_ge = 0.0);
  (* scaling in d: RiseFL proof gen sublinear, RoFL linear *)
  let r1 = CM.risefl (cfg 1_000) and r100 = CM.risefl (cfg 100_000) in
  Alcotest.(check bool) "RiseFL sublinear in d" true
    (r100.CM.client_proof_gen_ge /. r1.CM.client_proof_gen_ge < 100.0);
  let ro1 = CM.rofl (cfg 1_000) and ro100 = CM.rofl (cfg 100_000) in
  Alcotest.(check bool) "RoFL linear in d" true
    (abs_float ((ro100.CM.client_proof_gen_ge /. ro1.CM.client_proof_gen_ge) -. 100.0) < 1.0);
  (* the rendered table mentions every system *)
  let table = CM.to_table at_100k in
  List.iter
    (fun name ->
      Alcotest.(check bool) name true
        (String.length table > 0
        &&
        (* substring search without Str *)
        let nl = String.length name and tl = String.length table in
        let rec find i = i + nl <= tl && (String.sub table i nl = name || find (i + 1)) in
        find 0))
    [ "EIFFeL"; "RoFL"; "ACORN"; "RiseFL" ]

(* --- channel --- *)

let test_channel_roundtrip () =
  let a = Channel.gen_keypair drbg in
  let b = Channel.gen_keypair drbg in
  let kab = Channel.shared_key ~my:a ~their_pk:b.Channel.pk in
  let kba = Channel.shared_key ~my:b ~their_pk:a.Channel.pk in
  Alcotest.(check bool) "DH agreement" true (Bytes.equal kab kba);
  let msg = Bytes.of_string "attack at dawn" in
  let sealed = Channel.seal ~key:kab ~nonce_seed:"n1" msg in
  (match Channel.open_ ~key:kba sealed with
  | Some plain -> Alcotest.(check bool) "roundtrip" true (Bytes.equal plain msg)
  | None -> Alcotest.fail "open failed");
  (* tampering is detected *)
  let body = Bytes.copy sealed.Channel.body in
  Bytes.set body 0 (Char.chr (Char.code (Bytes.get body 0) lxor 1));
  Alcotest.(check bool) "tamper detected" true (Channel.open_ ~key:kba { sealed with Channel.body = body } = None);
  (* wrong key fails *)
  let c = Channel.gen_keypair drbg in
  let kc = Channel.shared_key ~my:c ~their_pk:a.Channel.pk in
  Alcotest.(check bool) "wrong key" true (Channel.open_ ~key:kc sealed = None)

let () =
  Alcotest.run "protocol"
    [
      ( "iterations",
        [
          Alcotest.test_case "honest run aggregates exactly" `Quick test_honest_run;
          Alcotest.test_case "grossly oversized rejected" `Quick test_grossly_oversized_rejected;
          Alcotest.test_case "slightly oversized passes (relaxed SAVI)" `Quick test_slightly_oversized_passes;
          Alcotest.test_case "bad shares to everyone (rule 1)" `Quick test_bad_shares_to_everyone;
          Alcotest.test_case "bad share to one (rule 2)" `Quick test_bad_share_to_one_rule2;
          Alcotest.test_case "false flags neutralized" `Quick test_false_flags_neutralized;
          Alcotest.test_case "dropout excluded" `Quick test_dropout;
          Alcotest.test_case "serialized wire run" `Quick test_serialized_wire_run;
          Alcotest.test_case "bad agg share tolerated" `Quick test_bad_agg_share_tolerated;
          Alcotest.test_case "reveal-shares cap (rule 2 abuse)" `Quick test_reveal_shares_caps_requests;
        ] );
      ( "steps",
        [
          Alcotest.test_case "oversized skips the norm check" `Quick test_step_oversized;
          Alcotest.test_case "bad shares hit only the targets" `Quick test_step_bad_share_to;
          Alcotest.test_case "false flags merge" `Quick test_step_false_flags;
          Alcotest.test_case "agg behaviours" `Quick test_step_agg;
          Alcotest.test_case "reveal over m refused" `Quick test_step_reveal_cap;
        ] );
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "B0 magnitude" `Quick test_b0_magnitude;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "deterministic" `Quick test_sampling_deterministic;
          Alcotest.test_case "VerCrt accept/reject" `Quick test_ver_crt_accepts_and_rejects;
          Alcotest.test_case "exact projections" `Quick test_project_exact;
        ] );
      ("cost-model", [ Alcotest.test_case "Table 1 shapes" `Quick test_cost_model_shapes ]);
      ("channel", [ Alcotest.test_case "roundtrip and tamper" `Quick test_channel_roundtrip ]);
    ]
