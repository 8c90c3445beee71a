(* Tests for Pedersen commitments (incl. the paper's shared-blind vector
   form and homomorphisms) and verifiable Shamir secret sharing. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Gens = Curve25519.Gens
module Pedersen = Commitments.Pedersen

let drbg = Prng.Drbg.create_string "test-commit-vsss"
let g = Gens.derive "test/g"
let h = Gens.derive "test/h"
let key = Pedersen.make_key ~g ~h

(* --- pedersen --- *)

let test_commit_open () =
  for _ = 1 to 10 do
    let v = Scalar.random drbg and r = Scalar.random drbg in
    let c = Pedersen.commit key ~value:v ~blind:r in
    Alcotest.(check bool) "opens" true (Pedersen.verify_open key c ~value:v ~blind:r);
    Alcotest.(check bool) "wrong value" false
      (Pedersen.verify_open key c ~value:(Scalar.add v Scalar.one) ~blind:r);
    Alcotest.(check bool) "wrong blind" false
      (Pedersen.verify_open key c ~value:v ~blind:(Scalar.add r Scalar.one))
  done

let test_commit_small_agrees () =
  List.iter
    (fun v ->
      let r = Scalar.random drbg in
      Alcotest.(check bool) (Printf.sprintf "v=%d" v) true
        (Point.equal (Pedersen.commit_small key ~value:v ~blind:r)
           (Pedersen.commit key ~value:(Scalar.of_int v) ~blind:r)))
    [ 0; 1; -1; 12345; -32768; 32767 ]

let test_commit_homomorphic () =
  let v1 = Scalar.random drbg and r1 = Scalar.random drbg in
  let v2 = Scalar.random drbg and r2 = Scalar.random drbg in
  let c1 = Pedersen.commit key ~value:v1 ~blind:r1 in
  let c2 = Pedersen.commit key ~value:v2 ~blind:r2 in
  Alcotest.(check bool) "C(v1,r1)C(v2,r2)=C(v1+v2,r1+r2)" true
    (Point.equal (Point.add c1 c2)
       (Pedersen.commit key ~value:(Scalar.add v1 v2) ~blind:(Scalar.add r1 r2)))

let test_commit_vec_shared_blind () =
  let d = 8 in
  let bases = Gens.derive_many "test/w" d in
  let w_comb = Point.Comb.make bases in
  let values = Array.init d (fun i -> (i * 17) - 50) in
  let blind = Scalar.random drbg in
  let c = Pedersen.commit_vec ~g_table:key.Pedersen.g_table ~w_comb ~values ~blind in
  Alcotest.(check int) "length" d (Array.length c);
  (* element l must equal g^{u_l} w_l^r *)
  Array.iteri
    (fun l cl ->
      let expected = Point.add (Point.mul_small values.(l) g) (Point.mul blind bases.(l)) in
      Alcotest.(check bool) (Printf.sprintf "coord %d" l) true (Point.equal cl expected))
    c;
  (* aggregation identity of Eqn 6: product over two clients *)
  let values2 = Array.init d (fun i -> i - 3) in
  let blind2 = Scalar.random drbg in
  let c2 = Pedersen.commit_vec ~g_table:key.Pedersen.g_table ~w_comb ~values:values2 ~blind:blind2 in
  let sum = Pedersen.add c c2 in
  let expected_sum =
    Pedersen.commit_vec ~g_table:key.Pedersen.g_table ~w_comb
      ~values:(Array.map2 ( + ) values values2)
      ~blind:(Scalar.add blind blind2)
  in
  Array.iteri
    (fun l s -> Alcotest.(check bool) (Printf.sprintf "agg %d" l) true (Point.equal s expected_sum.(l)))
    sum

let test_elgamal () =
  let r = Scalar.random drbg in
  let c = Pedersen.Elgamal.commit key ~value:42 ~blind:r in
  Alcotest.(check bool) "opens" true (Pedersen.Elgamal.verify_open key c ~value:42 ~blind:r);
  Alcotest.(check bool) "wrong" false (Pedersen.Elgamal.verify_open key c ~value:43 ~blind:r);
  let r2 = Scalar.random drbg in
  let c2 = Pedersen.Elgamal.commit key ~value:(-7) ~blind:r2 in
  let s = Pedersen.Elgamal.add c c2 in
  Alcotest.(check bool) "homomorphic" true
    (Pedersen.Elgamal.verify_open key s ~value:35 ~blind:(Scalar.add r r2))

(* --- vsss --- *)

let test_share_recover () =
  List.iter
    (fun (n, t) ->
      let secret = Scalar.random drbg in
      let shares, _check = Vsss.share drbg ~secret ~n ~t ~g in
      Alcotest.(check int) "n shares" n (Array.length shares);
      (* any t shares recover *)
      let subset = Array.to_list (Array.sub shares 0 t) in
      Alcotest.(check bool) "recover front" true (Scalar.equal secret (Vsss.recover subset));
      let subset_back = Array.to_list (Array.sub shares (n - t) t) in
      Alcotest.(check bool) "recover back" true (Scalar.equal secret (Vsss.recover subset_back));
      (* all n shares also recover *)
      Alcotest.(check bool) "recover all" true (Scalar.equal secret (Vsss.recover (Array.to_list shares))))
    [ (5, 3); (10, 1); (7, 7); (20, 11) ]

let test_fewer_shares_no_recover () =
  let secret = Scalar.random drbg in
  let shares, _ = Vsss.share drbg ~secret ~n:10 ~t:5 ~g in
  let subset = Array.to_list (Array.sub shares 0 4) in
  (* 4 < t shares: interpolation gives (whp) a different value *)
  Alcotest.(check bool) "no recover" false (Scalar.equal secret (Vsss.recover subset))

let test_verify_accepts_valid () =
  let secret = Scalar.random drbg in
  let shares, check = Vsss.share drbg ~secret ~n:8 ~t:4 ~g in
  Array.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "share %d" s.Vsss.idx) true (Vsss.verify ~g ~check s))
    shares

let test_verify_rejects_forged () =
  let secret = Scalar.random drbg in
  let shares, check = Vsss.share drbg ~secret ~n:8 ~t:4 ~g in
  let forged = { shares.(0) with Vsss.value = Scalar.add shares.(0).Vsss.value Scalar.one } in
  Alcotest.(check bool) "forged value" false (Vsss.verify ~g ~check forged);
  let swapped = { shares.(0) with Vsss.idx = 2 } in
  Alcotest.(check bool) "wrong index" false (Vsss.verify ~g ~check swapped);
  Alcotest.(check bool) "bad index" false (Vsss.verify ~g ~check { shares.(0) with Vsss.idx = 0 })

let test_check_commitment () =
  let secret = Scalar.random drbg in
  let _, check = Vsss.share drbg ~secret ~n:5 ~t:3 ~g in
  Alcotest.(check bool) "Psi(0) = g^secret" true
    (Point.equal (Vsss.commitment_of_check check) (Point.mul secret g))

let test_homomorphism () =
  let s1 = Scalar.random drbg and s2 = Scalar.random drbg in
  let sh1, c1 = Vsss.share drbg ~secret:s1 ~n:6 ~t:3 ~g in
  let sh2, c2 = Vsss.share drbg ~secret:s2 ~n:6 ~t:3 ~g in
  let sum_shares = Array.map2 Vsss.add_shares sh1 sh2 in
  let sum_check = Vsss.add_checks c1 c2 in
  (* summed shares verify against the summed check string *)
  Array.iter
    (fun s -> Alcotest.(check bool) "verify sum" true (Vsss.verify ~g ~check:sum_check s))
    sum_shares;
  (* and recover the summed secret *)
  Alcotest.(check bool) "recover sum" true
    (Scalar.equal (Scalar.add s1 s2) (Vsss.recover (Array.to_list (Array.sub sum_shares 0 3))))

let test_share_input_validation () =
  Alcotest.check_raises "t=0" (Invalid_argument "Vsss.share: need 0 < t <= n") (fun () ->
      ignore (Vsss.share drbg ~secret:Scalar.one ~n:5 ~t:0 ~g));
  Alcotest.check_raises "t>n" (Invalid_argument "Vsss.share: need 0 < t <= n") (fun () ->
      ignore (Vsss.share drbg ~secret:Scalar.one ~n:5 ~t:6 ~g));
  Alcotest.check_raises "duplicate" (Invalid_argument "Vsss.recover: duplicate shares") (fun () ->
      let s = { Vsss.idx = 1; value = Scalar.one } in
      ignore (Vsss.recover [ s; s ]));
  Alcotest.check_raises "empty" (Invalid_argument "Vsss.recover: no shares") (fun () ->
      ignore (Vsss.recover []))

let () =
  Alcotest.run "commitments-vsss"
    [
      ( "pedersen",
        [
          Alcotest.test_case "commit/open" `Quick test_commit_open;
          Alcotest.test_case "commit_small agrees" `Quick test_commit_small_agrees;
          Alcotest.test_case "homomorphic" `Quick test_commit_homomorphic;
          Alcotest.test_case "shared-blind vector (Eqn 2/6)" `Quick test_commit_vec_shared_blind;
          Alcotest.test_case "elgamal" `Quick test_elgamal;
        ] );
      ( "vsss",
        [
          Alcotest.test_case "share/recover" `Quick test_share_recover;
          Alcotest.test_case "threshold" `Quick test_fewer_shares_no_recover;
          Alcotest.test_case "verify valid" `Quick test_verify_accepts_valid;
          Alcotest.test_case "verify rejects forged" `Quick test_verify_rejects_forged;
          Alcotest.test_case "check commitment" `Quick test_check_commitment;
          Alcotest.test_case "homomorphism" `Quick test_homomorphism;
          Alcotest.test_case "input validation" `Quick test_share_input_validation;
        ] );
    ]
