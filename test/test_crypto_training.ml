(* Flagship integration test: several rounds of real federated training
   where every aggregation step runs the complete cryptographic protocol
   (hybrid commitments, ZK proofs, secure aggregation) — no float-level
   shortcuts. Verifies that (a) crypto-FL training matches plaintext FL
   training bit-for-bit on the fixed-point grid, (b) the model actually
   learns, and (c) a poisoning client is excluded mid-training. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Fp = Encoding.Fixed_point
module F = Flsim

let n_clients = 4
let features = 6
let classes = 2
(* softmax on 6 features, 2 classes: d = 6*2 + 2 = 14 *)
let d = (features * classes) + classes

let params =
  Params.make ~n_clients ~max_malicious:1 ~d ~k:6 ~m_factor:64.0 ~bound_b:4000.0 ()

let setup = Setup.create ~label:"crypto-training" params
let fp = params.Params.fp

(* gradients are small floats; scale before encoding so the fixed-point
   grid resolves them *)
let grad_scale = 4.0

let encode_grad g = Fp.encode_vec fp (Array.map (fun x -> grad_scale *. x) g)
let decode_agg agg = Array.map (fun v -> Fp.decode fp v /. grad_scale) agg

let make_world seed =
  let drbg = Prng.Drbg.create_string seed in
  let data = F.Dataset.gaussian_blobs drbg ~n:400 ~features ~classes ~spread:0.4 in
  let train, test = F.Dataset.split drbg data ~test_fraction:0.25 in
  let parts = F.Dataset.partition train ~parts:n_clients in
  let model = F.Model.create drbg F.Model.Softmax ~n_features:features ~n_classes:classes in
  (parts, test, model, drbg)

let test_crypto_training_matches_plaintext () =
  let parts, test, model, drbg = make_world "ct-match" in
  let model_plain = F.Model.create (Prng.Drbg.create_string "ct-match") F.Model.Softmax ~n_features:features ~n_classes:classes in
  F.Model.set_params model_plain (F.Model.params model);
  let session = Driver.create_session setup ~seed:"ct-match-session" in
  let rounds = 3 in
  for round = 1 to rounds do
    let grads = Array.map (fun part -> F.Model.gradient model part ~batch:None drbg) parts in
    let updates = Array.map encode_grad grads in
    (* plaintext reference: aggregate the *quantized* gradients, exactly
       what the crypto pipeline transports *)
    let plain_sum = Array.init d (fun l -> Array.fold_left (fun a u -> a + u.(l)) 0 updates) in
    let stats =
      Driver.completed_exn
        (Driver.run_round_outcome session ~updates ~behaviours:(Driver.honest_all n_clients) ~round)
    in
    (match stats.Driver.aggregate with
    | None -> Alcotest.fail "aggregation failed"
    | Some agg ->
        Alcotest.(check (array int)) (Printf.sprintf "round %d exact" round) plain_sum agg;
        let step = Array.map (fun x -> x /. float_of_int n_clients) (decode_agg agg) in
        F.Model.step model step ~lr:0.5;
        (* drive the plaintext twin with the identical decoded aggregate *)
        F.Model.step model_plain step ~lr:0.5);
    Alcotest.(check (list int)) (Printf.sprintf "round %d no flags" round) [] stats.Driver.flagged
  done;
  (* both models saw identical updates *)
  Alcotest.(check bool) "models identical" true (F.Model.params model = F.Model.params model_plain);
  let acc = F.Model.accuracy model test in
  Alcotest.(check bool) (Printf.sprintf "learned: acc %.3f" acc) true (acc > 0.8)

let test_crypto_training_excludes_attacker () =
  let parts, test, model, drbg = make_world "ct-attack" in
  let session = Driver.create_session setup ~seed:"ct-attack-session" in
  let flagged_rounds = ref 0 in
  for round = 1 to 3 do
    let grads = Array.map (fun part -> F.Model.gradient model part ~batch:None drbg) parts in
    let updates = Array.map encode_grad grads in
    let behaviours = Driver.honest_all n_clients in
    (* client 2 mounts a huge sign-flip every round *)
    let norm = Fp.l2_norm_encoded updates.(1) in
    if norm > 0.0 then begin
      let factor = -.(80.0 *. params.Params.bound_b /. norm) in
      updates.(1) <- Array.map (fun x -> int_of_float (factor *. float_of_int x)) updates.(1);
      behaviours.(1) <- Driver.Oversized 80.0
    end;
    let stats =
      Driver.completed_exn (Driver.run_round_outcome session ~updates ~behaviours ~round)
    in
    if List.mem 2 stats.Driver.flagged then incr flagged_rounds;
    match stats.Driver.aggregate with
    | None -> Alcotest.fail "aggregation failed"
    | Some agg ->
        (* the aggregate must equal the honest clients' sum exactly *)
        let honest_sum =
          Array.init d (fun l -> updates.(0).(l) + updates.(2).(l) + updates.(3).(l))
        in
        Alcotest.(check (array int)) (Printf.sprintf "round %d honest-only" round) honest_sum agg;
        let step = Array.map (fun x -> x /. 3.0) (decode_agg agg) in
        F.Model.step model step ~lr:0.5
  done;
  Alcotest.(check int) "attacker flagged every round" 3 !flagged_rounds;
  let acc = F.Model.accuracy model test in
  Alcotest.(check bool) (Printf.sprintf "still learned: acc %.3f" acc) true (acc > 0.8)

let () =
  Alcotest.run "crypto-training"
    [
      ( "federated",
        [
          Alcotest.test_case "crypto == plaintext on the fixed-point grid" `Quick
            test_crypto_training_matches_plaintext;
          Alcotest.test_case "attacker excluded across rounds" `Quick
            test_crypto_training_excludes_attacker;
        ] );
    ]
