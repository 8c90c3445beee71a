(* §4.6 extensions, exercised against the full cryptographic pipeline:
   the sphere defense via commitment re-centering, and the cosine
   similarity defense via the homomorphically derived inner-product
   commitment with its linkage/square/range proofs. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Predicate = Risefl_core.Predicate
module Extensions = Risefl_core.Extensions

let d = 16
let params = Params.make ~n_clients:4 ~max_malicious:1 ~d ~k:4 ~m_factor:64.0 ~bound_b:1200.0 ()
let setup = Setup.create ~label:"test-extensions" params

let mk_updates n = Array.init n (fun i -> Array.init d (fun l -> ((i * 17) + (l * 9)) mod 120 - 60))

let sum_updates updates idxs =
  Array.init d (fun l -> List.fold_left (fun acc i -> acc + updates.(i - 1).(l)) 0 idxs)

(* --- sphere defense: commit u − v, un-shift the aggregate --- *)

let test_sphere_roundtrip () =
  let updates = mk_updates 4 in
  (* public center: last round's global update, say *)
  let center = Array.init d (fun l -> (l * 3) - 20) in
  let shifted = Array.map (fun u -> Extensions.sphere_shift ~center u) updates in
  (* the shifted updates must satisfy the bound; here they do by size *)
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome
         (Driver.create_session setup ~seed:"sphere")
         ~updates:shifted ~behaviours:(Driver.honest_all 4) ~round:1)
  in
  match stats.Driver.aggregate with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg ->
      let recovered = Extensions.sphere_unshift ~center ~n_honest:4 agg in
      Alcotest.(check (array int)) "sum recovered" (sum_updates updates [ 1; 2; 3; 4 ]) recovered

let test_sphere_catches_far_update () =
  let updates = mk_updates 4 in
  let center = Array.init d (fun _ -> 0) in
  (* client 2 is far from the center: ||u - v|| >> B *)
  updates.(1) <- Array.map (fun x -> x * 100) updates.(1);
  let shifted = Array.map (fun u -> Extensions.sphere_shift ~center u) updates in
  let behaviours = Driver.honest_all 4 in
  behaviours.(1) <- Driver.Oversized 100.0;
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome
         (Driver.create_session setup ~seed:"sphere-far")
         ~updates:shifted ~behaviours ~round:1)
  in
  Alcotest.(check (list int)) "flagged" [ 2 ] stats.Driver.flagged

(* --- zeno++ reduces to sphere --- *)

let test_zeno_reduction () =
  let v = [| 2.0; 1.0; 0.0 |] in
  let center, radius = Extensions.zeno_center_radius ~v ~gamma:1.0 ~rho:0.5 ~eps:0.01 in
  (* center = (gamma/2rho) v = v *)
  Alcotest.(check (array (float 1e-9))) "center" [| 2.0; 1.0; 0.0 |] center;
  (* radius^2 = gamma^2/(4 rho^2) |v|^2 - gamma eps / rho = 5 - 0.02 *)
  Alcotest.(check (float 1e-9)) "radius" (sqrt 4.98) radius;
  (* unsatisfiable predicate clamps to zero *)
  let _, r0 = Extensions.zeno_center_radius ~v:[| 0.01; 0.0; 0.0 |] ~gamma:1.0 ~rho:0.5 ~eps:10.0 in
  Alcotest.(check (float 0.0)) "clamped" 0.0 r0

(* --- cosine defense, full crypto --- *)

let aligned_updates n =
  (* all clients' updates strongly aligned with the reference direction *)
  let base = Array.init d (fun l -> 40 + (l * 2)) in
  Array.init n (fun i -> Array.map (fun x -> x + (i * 3)) base)

let reference = Array.init d (fun l -> 50 + l)

let test_cosine_accepts_aligned () =
  let updates = aligned_updates 4 in
  let predicate = Predicate.Cosine { v = reference; alpha = 0.5 } in
  let session = Driver.create_session setup ~seed:"cos-aligned" in
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome ~predicate session ~updates ~behaviours:(Driver.honest_all 4)
         ~round:1)
  in
  Alcotest.(check (list int)) "all pass" [] stats.Driver.flagged;
  match stats.Driver.aggregate with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg -> Alcotest.(check (array int)) "sum" (sum_updates updates [ 1; 2; 3; 4 ]) agg

let test_cosine_rejects_opposed () =
  let updates = aligned_updates 4 in
  (* client 3 submits a direction-opposed update: w = <u,v> < 0 *)
  updates.(2) <- Array.map (fun x -> -x) updates.(2);
  let behaviours = Driver.honest_all 4 in
  behaviours.(2) <- Driver.Oversized 1.0;
  let predicate = Predicate.Cosine { v = reference; alpha = 0.5 } in
  let session = Driver.create_session setup ~seed:"cos-opposed" in
  let stats =
    Driver.completed_exn (Driver.run_round_outcome ~predicate session ~updates ~behaviours ~round:1)
  in
  Alcotest.(check (list int)) "opposed client flagged" [ 3 ] stats.Driver.flagged;
  match stats.Driver.aggregate with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg -> Alcotest.(check (array int)) "honest sum" (sum_updates updates [ 1; 2; 4 ]) agg

let test_cosine_rejects_orthogonal_large () =
  (* an update orthogonal-ish to v with a large norm: w small but
     ||u|| large, so sum projections^2 >> w^2 * factor *)
  let updates = aligned_updates 4 in
  updates.(0) <- Array.init d (fun l -> if l land 1 = 0 then 900 else -900);
  (* make it orthogonal to the reference: <u,v> ~ 0 by alternating signs *)
  let behaviours = Driver.honest_all 4 in
  behaviours.(0) <- Driver.Oversized 1.0;
  let predicate = Predicate.Cosine { v = reference; alpha = 0.5 } in
  let session = Driver.create_session setup ~seed:"cos-orth" in
  let stats =
    Driver.completed_exn (Driver.run_round_outcome ~predicate session ~updates ~behaviours ~round:1)
  in
  Alcotest.(check bool) "orthogonal large update flagged" true (List.mem 1 stats.Driver.flagged)

let test_cosine_proof_required () =
  (* parameter-validation layer of the cosine predicate *)
  Alcotest.check_raises "bad alpha" (Invalid_argument "Predicate.cosine_factor: alpha must be in (0,1]")
    (fun () -> ignore (Predicate.cosine_factor params ~v:reference ~alpha:1.5));
  Alcotest.check_raises "zero reference" (Invalid_argument "Predicate.cosine_factor: zero reference vector")
    (fun () -> ignore (Predicate.cosine_factor params ~v:(Array.make d 0) ~alpha:0.5));
  Alcotest.check_raises "wrong dimension" (Invalid_argument "Predicate.validate: reference dimension")
    (fun () -> Predicate.validate params (Predicate.Cosine { v = [| 1; 2 |]; alpha = 0.5 }))

let test_cosine_factor_magnitude () =
  let factor = Predicate.cosine_factor params ~v:reference ~alpha:0.5 in
  (* factor ~ M^2 gamma / (alpha^2 |v|^2); sanity-check the order *)
  let n2 = Array.fold_left (fun a x -> a +. (float_of_int x *. float_of_int x)) 0.0 reference in
  let expected = 64.0 ** 2.0 *. Params.gamma params /. (0.25 *. n2) in
  let f = Bigint.to_int factor in
  Alcotest.(check bool)
    (Printf.sprintf "factor %d ~ %.0f" f expected)
    true
    (float_of_int f >= expected && float_of_int f < expected *. 1.2)

let () =
  Alcotest.run "extensions"
    [
      ( "sphere",
        [
          Alcotest.test_case "shift/unshift roundtrip" `Quick test_sphere_roundtrip;
          Alcotest.test_case "catches far update" `Quick test_sphere_catches_far_update;
        ] );
      ("zeno", [ Alcotest.test_case "reduction to sphere" `Quick test_zeno_reduction ]);
      ( "cosine",
        [
          Alcotest.test_case "accepts aligned clients" `Quick test_cosine_accepts_aligned;
          Alcotest.test_case "rejects opposed update" `Quick test_cosine_rejects_opposed;
          Alcotest.test_case "rejects orthogonal large update" `Quick test_cosine_rejects_orthogonal_large;
          Alcotest.test_case "parameter validation" `Quick test_cosine_proof_required;
          Alcotest.test_case "factor magnitude" `Quick test_cosine_factor_magnitude;
        ] );
    ]
