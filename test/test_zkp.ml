(* ZKP layer tests: completeness (honest proofs verify), soundness
   negatives (mutated statements or proofs fail), transcript binding. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Gens = Curve25519.Gens
module Transcript = Zkp.Transcript
module Sigma = Zkp.Sigma
module Ipa = Zkp.Ipa
module Range_proof = Zkp.Range_proof

let drbg = Prng.Drbg.create_string "test-zkp"
let g = Gens.derive "zkp-test/g"
let h = Gens.derive "zkp-test/h"
let q = Gens.derive "zkp-test/q"

(* --- transcript --- *)

let test_transcript_deterministic () =
  let mk () =
    let t = Transcript.create "proto" in
    Transcript.append_bytes t ~label:"m" (Bytes.of_string "hello");
    Transcript.challenge_scalar t ~label:"c"
  in
  Alcotest.(check bool) "same" true (Scalar.equal (mk ()) (mk ()))

let test_transcript_sensitive () =
  let challenge domain label msg =
    let t = Transcript.create domain in
    Transcript.append_bytes t ~label (Bytes.of_string msg);
    Transcript.challenge_scalar t ~label:"c"
  in
  let base = challenge "proto" "m" "hello" in
  Alcotest.(check bool) "domain" false (Scalar.equal base (challenge "other" "m" "hello"));
  Alcotest.(check bool) "label" false (Scalar.equal base (challenge "proto" "m2" "hello"));
  Alcotest.(check bool) "message" false (Scalar.equal base (challenge "proto" "m" "hellp"))

let test_transcript_challenge_chain () =
  let t = Transcript.create "proto" in
  let c1 = Transcript.challenge_scalar t ~label:"c" in
  let c2 = Transcript.challenge_scalar t ~label:"c" in
  Alcotest.(check bool) "successive challenges differ" false (Scalar.equal c1 c2)

(* --- representation proof --- *)

let test_repr_roundtrip () =
  for _ = 1 to 5 do
    let x = Scalar.random drbg and r = Scalar.random drbg in
    let c = Point.double_mul x g r h in
    let tr = Transcript.create "t" in
    let proof = Sigma.Repr.prove drbg tr ~g ~h ~c ~x ~r in
    let tv = Transcript.create "t" in
    Alcotest.(check bool) "verifies" true (Sigma.Repr.verify tv ~g ~h ~c proof)
  done

let test_repr_rejects () =
  let x = Scalar.random drbg and r = Scalar.random drbg in
  let c = Point.double_mul x g r h in
  let tr = Transcript.create "t" in
  let proof = Sigma.Repr.prove drbg tr ~g ~h ~c ~x ~r in
  (* wrong statement *)
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "wrong c" false (Sigma.Repr.verify tv ~g ~h ~c:(Point.add c g) proof);
  (* mutated response *)
  let tv = Transcript.create "t" in
  let bad = { proof with Sigma.Repr.z1 = Scalar.add proof.Sigma.Repr.z1 Scalar.one } in
  Alcotest.(check bool) "bad z1" false (Sigma.Repr.verify tv ~g ~h ~c bad);
  (* wrong domain *)
  let tv = Transcript.create "t2" in
  Alcotest.(check bool) "wrong domain" false (Sigma.Repr.verify tv ~g ~h ~c proof)

(* --- square proof --- *)

let test_square_roundtrip () =
  for _ = 1 to 5 do
    let x = Scalar.random drbg in
    let s = Scalar.random drbg and s' = Scalar.random drbg in
    let y1 = Point.double_mul x g s q in
    let y2 = Point.double_mul (Scalar.square x) g s' q in
    let tr = Transcript.create "t" in
    let proof = Sigma.Square.prove drbg tr ~g ~q ~y1 ~y2 ~x ~s ~s' in
    let tv = Transcript.create "t" in
    Alcotest.(check bool) "verifies" true (Sigma.Square.verify tv ~g ~q ~y1 ~y2 proof)
  done

let test_square_rejects_nonsquare () =
  let x = Scalar.of_int 5 in
  let s = Scalar.random drbg and s' = Scalar.random drbg in
  let y1 = Point.double_mul x g s q in
  (* y2 commits 26, not 25: an honest prover cannot exist, but check that a
     proof built with inconsistent witnesses fails *)
  let y2 = Point.double_mul (Scalar.of_int 26) g s' q in
  let tr = Transcript.create "t" in
  let proof = Sigma.Square.prove drbg tr ~g ~q ~y1 ~y2 ~x ~s ~s' in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "rejected" false (Sigma.Square.verify tv ~g ~q ~y1 ~y2 proof)

let test_square_small_values () =
  (* x = 0 and x = 1 edge cases *)
  List.iter
    (fun xv ->
      let x = Scalar.of_int xv in
      let s = Scalar.random drbg and s' = Scalar.random drbg in
      let y1 = Point.double_mul x g s q in
      let y2 = Point.double_mul (Scalar.square x) g s' q in
      let tr = Transcript.create "t" in
      let proof = Sigma.Square.prove drbg tr ~g ~q ~y1 ~y2 ~x ~s ~s' in
      let tv = Transcript.create "t" in
      Alcotest.(check bool) (Printf.sprintf "x=%d" xv) true (Sigma.Square.verify tv ~g ~q ~y1 ~y2 proof))
    [ 0; 1; -3 ]

(* --- well-formedness proof --- *)

let make_wf_instance k =
  let r = Scalar.random drbg in
  let hs = Gens.derive_many "zkp-test/hs" (k + 1) in
  let vs = Array.init (k + 1) (fun _ -> Scalar.random drbg) in
  let ss = Array.init k (fun _ -> Scalar.random drbg) in
  let z = Point.mul r g in
  let es = Array.init (k + 1) (fun t -> Point.double_mul vs.(t) g r hs.(t)) in
  let os = Array.init k (fun t -> Point.double_mul vs.(t + 1) g ss.(t) q) in
  (r, hs, vs, ss, z, es, os)

let test_wf_roundtrip () =
  let r, hs, vs, ss, z, es, os = make_wf_instance 4 in
  let tr = Transcript.create "t" in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es ~os ~r ~vs ~ss in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "verifies" true (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os proof)

let test_wf_rejects_mismatched_secret () =
  let r, hs, vs, ss, z, es, os = make_wf_instance 3 in
  (* o_2 commits a different value than e_3 *)
  let os = Array.copy os in
  os.(2) <- Point.double_mul (Scalar.add vs.(3) Scalar.one) g ss.(2) q;
  let tr = Transcript.create "t" in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es ~os ~r ~vs ~ss in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "rejected" false (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os proof)

let test_wf_rejects_wrong_blind_link () =
  let _, hs, vs, ss, z, es, os = make_wf_instance 3 in
  (* z commits a different r than the one in e_t *)
  let z' = Point.add z g in
  let tr = Transcript.create "t" in
  let r_fake = Scalar.random drbg in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z:z' ~es ~os ~r:r_fake ~vs ~ss in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "rejected" false (Sigma.Wf.verify tv ~g ~q ~hs ~z:z' ~es ~os proof);
  ignore z

let test_wf_shape_validation () =
  let _, hs, _, _, z, es, os = make_wf_instance 3 in
  let tr = Transcript.create "t" in
  Alcotest.check_raises "es shape" (Invalid_argument "Sigma.Wf: |es| must equal |hs|") (fun () ->
      ignore
        (Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es:(Array.sub es 0 2) ~os ~r:Scalar.one ~vs:[| Scalar.one |]
           ~ss:[| Scalar.one |]))

(* --- ipa --- *)

let bp_gens = Range_proof.make_gens ~label:"zkp-test" 128

let test_ipa_roundtrip () =
  List.iter
    (fun n ->
      let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
      let u = bp_gens.Range_proof.u in
      let a = Array.init n (fun _ -> Scalar.random drbg) in
      let b = Array.init n (fun _ -> Scalar.random drbg) in
      let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
      let p =
        Curve25519.Msm.msm
          (Array.concat
             [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv; [| (c, u) |] ])
      in
      let tr = Transcript.create "ipa" in
      let proof = Ipa.prove tr ~g:gv ~h:hv ~u ~a ~b in
      let tv = Transcript.create "ipa" in
      Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (Ipa.verify tv ~g:gv ~h:hv ~u ~p proof))
    [ 1; 2; 4; 16; 64 ]

let ipa_bytes (pr : Ipa.proof) =
  Bytes.concat Bytes.empty
    (List.map Point.compress (Array.to_list pr.Ipa.ls @ Array.to_list pr.Ipa.rs)
    @ [ Scalar.to_bytes pr.Ipa.a; Scalar.to_bytes pr.Ipa.b ])

(* the factor form: proving over (h, u) with h_factor f and u_scale w
   must give the very bytes of proving over materialized h'_i = f^i·h_i
   and u' = w·u, and verify against them *)
let test_ipa_factor_form () =
  List.iter
    (fun n ->
      let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
      let u = bp_gens.Range_proof.u in
      let f = Scalar.random drbg and w = Scalar.random drbg in
      let fpow = Array.make n Scalar.one in
      for i = 1 to n - 1 do
        fpow.(i) <- Scalar.mul fpow.(i - 1) f
      done;
      let hv' = Array.mapi (fun i hi -> Point.mul fpow.(i) hi) hv in
      let u' = Point.mul w u in
      let a = Array.init n (fun _ -> Scalar.random drbg) in
      let b = Array.init n (fun _ -> Scalar.random drbg) in
      let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
      let p =
        Curve25519.Msm.msm
          (Array.concat
             [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv'; [| (c, u') |] ])
      in
      let factored = Ipa.prove ~h_factor:f ~u_scale:w (Transcript.create "ipa") ~g:gv ~h:hv ~u ~a ~b in
      let plain = Ipa.prove (Transcript.create "ipa") ~g:gv ~h:hv' ~u:u' ~a ~b in
      Alcotest.(check bytes) (Printf.sprintf "n=%d same bytes" n) (ipa_bytes plain) (ipa_bytes factored);
      Alcotest.(check bool) (Printf.sprintf "n=%d verifies" n) true
        (Ipa.verify (Transcript.create "ipa") ~g:gv ~h:hv' ~u:u' ~p factored))
    [ 1; 2; 4; 64 ]

(* the table prover (no generator fold, L/R as fixed-base MSMs over the
   original generators) must give the fold prover's bytes at every
   length, with random h_factor/u_scale; the tables come from
   Range_proof.tables, so its layout is the one prove_table reads *)
let test_ipa_table_vs_fold () =
  let gens = Range_proof.make_gens ~label:"zkp-test/ipa-table" 256 in
  let table = Range_proof.tables gens in
  List.iter
    (fun n ->
      let gv = Array.sub gens.Range_proof.gv 0 n and hv = Array.sub gens.Range_proof.hv 0 n in
      let h_factor = Scalar.random drbg and u_scale = Scalar.random drbg in
      let a = Array.init n (fun _ -> Scalar.random drbg) in
      let b = Array.init n (fun _ -> Scalar.random drbg) in
      let fold =
        Ipa.prove ~h_factor ~u_scale (Transcript.create "ipa") ~g:gv ~h:hv ~u:gens.Range_proof.u ~a ~b
      in
      let tab = Ipa.prove_table ~h_factor ~u_scale table (Transcript.create "ipa") ~a ~b in
      Alcotest.(check bytes) (Printf.sprintf "n=%d same bytes" n) (ipa_bytes fold) (ipa_bytes tab))
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ];
  Alcotest.check_raises "longer than the table"
    (Invalid_argument "Ipa.prove_table: more generators than the table holds") (fun () ->
      let a = Array.make 512 Scalar.one in
      ignore (Ipa.prove_table table (Transcript.create "ipa") ~a ~b:a))

(* the batched inversion and the s_i recurrence against the product
   form Ipa.verify uses, s_i = Π_j x_j^{±1} with + where bit
   (rounds−1−j) of i is set, for every length 1 … 256 *)
let test_ipa_verification_scalars () =
  for rounds = 0 to 8 do
    let n = 1 lsl rounds in
    let xs = Array.init rounds (fun _ -> Scalar.random drbg) in
    let xinvs = Array.map Scalar.inv xs in
    let product i =
      let acc = ref Scalar.one in
      for j = 0 to rounds - 1 do
        acc := Scalar.mul !acc (if (i lsr (rounds - 1 - j)) land 1 = 1 then xs.(j) else xinvs.(j))
      done;
      !acc
    in
    let got_inv, got_s = Ipa.verification_scalars xs in
    Alcotest.(check bool) (Printf.sprintf "n=%d inverses" n) true (Array.for_all2 Scalar.equal xinvs got_inv);
    Alcotest.(check int) (Printf.sprintf "n=%d length" n) n (Array.length got_s);
    Array.iteri
      (fun i s -> Alcotest.(check bool) (Printf.sprintf "n=%d s_%d" n i) true (Scalar.equal (product i) s))
      got_s
  done

let test_ipa_rejects_wrong_p () =
  let n = 8 in
  let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
  let u = bp_gens.Range_proof.u in
  let a = Array.init n (fun _ -> Scalar.random drbg) in
  let b = Array.init n (fun _ -> Scalar.random drbg) in
  let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
  let p =
    Curve25519.Msm.msm
      (Array.concat
         [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv; [| (c, u) |] ])
  in
  let tr = Transcript.create "ipa" in
  let proof = Ipa.prove tr ~g:gv ~h:hv ~u ~a ~b in
  let tv = Transcript.create "ipa" in
  Alcotest.(check bool) "wrong p" false (Ipa.verify tv ~g:gv ~h:hv ~u ~p:(Point.add p u) proof);
  let tv = Transcript.create "ipa" in
  let bad = { proof with Ipa.a = Scalar.add proof.Ipa.a Scalar.one } in
  Alcotest.(check bool) "bad a" false (Ipa.verify tv ~g:gv ~h:hv ~u ~p bad)

(* --- range proof --- *)

let bi = Bigint.of_int

let test_range_roundtrip () =
  List.iter
    (fun (bits, values) ->
      let values = Array.map bi values in
      let blinds = Array.map (fun _ -> Scalar.random drbg) values in
      let commitments =
        Array.map2 (fun v r -> Point.double_mul (Scalar.of_bigint v) g r h) values blinds
      in
      let tr = Transcript.create "rp" in
      let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits ~values ~blinds in
      let tv = Transcript.create "rp" in
      Alcotest.(check bool)
        (Printf.sprintf "bits=%d m=%d" bits (Array.length values))
        true
        (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits ~commitments proof))
    [
      (8, [| 0 |]);
      (8, [| 255 |]);
      (8, [| 37; 200 |]);
      (16, [| 65535; 0; 12345 |]) (* padded to m=4 *);
      (4, [| 15; 1; 2; 3; 4; 5 |]) (* padded to m=8 *);
      (* nt = 128, the σ/μ shapes of the wide-model workload *)
      (32, [| 0; 1; 7; 1 lsl 31 |]);
      (64, [| max_int; 3 |]);
      (128, [| 123456789 |]);
    ]

let test_range_rejects_out_of_range () =
  (* the prover refuses out-of-range witnesses... *)
  let tr = Transcript.create "rp" in
  Alcotest.check_raises "witness too large" (Invalid_argument "Range_proof.prove: value out of range")
    (fun () ->
      ignore
        (Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values:[| bi 256 |]
           ~blinds:[| Scalar.random drbg |]))

let test_range_rejects_wrong_commitment () =
  (* ...and a verifier with a different commitment rejects *)
  let values = [| bi 100 |] in
  let blinds = [| Scalar.random drbg |] in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let wrong = [| Point.double_mul (Scalar.of_int 101) g blinds.(0) h |] in
  let tv = Transcript.create "rp" in
  Alcotest.(check bool) "rejects" false
    (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits:8 ~commitments:wrong proof)

let test_range_rejects_tampered_proof () =
  let values = [| bi 100; bi 50 |] in
  let blinds = Array.map (fun _ -> Scalar.random drbg) values in
  let commitments = Array.map2 (fun v r -> Point.double_mul (Scalar.of_bigint v) g r h) values blinds in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let tamper p msg =
    let tv = Transcript.create "rp" in
    Alcotest.(check bool) msg false (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits:8 ~commitments p)
  in
  tamper { proof with Range_proof.t_hat = Scalar.add proof.Range_proof.t_hat Scalar.one } "t_hat";
  tamper { proof with Range_proof.mu = Scalar.add proof.Range_proof.mu Scalar.one } "mu";
  tamper { proof with Range_proof.tau_x = Scalar.add proof.Range_proof.tau_x Scalar.one } "tau_x";
  tamper { proof with Range_proof.a = Point.add proof.Range_proof.a g } "A"

let test_range_bits_validation () =
  let tr = Transcript.create "rp" in
  Alcotest.check_raises "bits not pow2"
    (Invalid_argument "Range_proof: bits must be a power of two in [2, 128]") (fun () ->
      ignore
        (Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:12 ~values:[| bi 7 |]
           ~blinds:[| Scalar.random drbg |]))

let test_range_proof_size_logarithmic () =
  let prove_size values bits =
    let values = Array.map bi values in
    let blinds = Array.map (fun _ -> Scalar.random drbg) values in
    let tr = Transcript.create "rp" in
    let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits ~values ~blinds in
    Range_proof.size_bytes proof
  in
  let s8 = prove_size [| 1 |] 8 in
  let s64 = prove_size [| 1; 2; 3; 4 |] 16 in
  (* 8x the committed bits, only log growth in size *)
  Alcotest.(check bool) (Printf.sprintf "log growth: %d -> %d" s8 s64) true (s64 - s8 = 3 * 64)

let test_range_wrong_bits_at_verify () =
  (* verifying with a different bit width than proved must fail (the
     width is absorbed into the transcript) *)
  let values = [| bi 10 |] in
  let blinds = [| Scalar.random drbg |] in
  let commitments = [| Point.double_mul (Scalar.of_int 10) g blinds.(0) h |] in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let tv = Transcript.create "rp" in
  Alcotest.(check bool) "wrong bits" false
    (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits:16 ~commitments proof)

let test_range_swapped_bases () =
  (* verifying against swapped (g, h) bases must fail *)
  let values = [| bi 33 |] in
  let blinds = [| Scalar.random drbg |] in
  let commitments = [| Point.double_mul (Scalar.of_int 33) g blinds.(0) h |] in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let tv = Transcript.create "rp" in
  Alcotest.(check bool) "swapped bases" false
    (Range_proof.verify tv ~gens:bp_gens ~g:h ~h:g ~bits:8 ~commitments proof)

let test_ipa_mutations () =
  let n = 8 in
  let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
  let u = bp_gens.Range_proof.u in
  let a = Array.init n (fun _ -> Scalar.random drbg) in
  let b = Array.init n (fun _ -> Scalar.random drbg) in
  let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
  let p =
    Curve25519.Msm.msm
      (Array.concat
         [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv; [| (c, u) |] ])
  in
  let tr = Transcript.create "ipa" in
  let proof = Ipa.prove tr ~g:gv ~h:hv ~u ~a ~b in
  let mutations =
    [
      ("b response", { proof with Ipa.b = Scalar.add proof.Ipa.b Scalar.one });
      ("L[0]", { proof with Ipa.ls = (let l = Array.copy proof.Ipa.ls in l.(0) <- Point.add l.(0) u; l) });
      ("R[last]",
        { proof with
          Ipa.rs =
            (let r = Array.copy proof.Ipa.rs in
             let i = Array.length r - 1 in
             r.(i) <- Point.double r.(i);
             r) });
      ("truncated rounds", { proof with Ipa.ls = Array.sub proof.Ipa.ls 0 2; rs = Array.sub proof.Ipa.rs 0 2 });
    ]
  in
  List.iter
    (fun (name, bad) ->
      let tv = Transcript.create "ipa" in
      Alcotest.(check bool) name false (Ipa.verify tv ~g:gv ~h:hv ~u ~p bad))
    mutations

(* --- golden proof bytes ---

   The prover may be optimized freely as long as it emits the same group
   elements in the same order from the same DRBG draws. These digests
   pin the exact bytes of range proofs at the shapes the client uses
   (σ: b_ip × k, μ: b_max × 1) plus a padded shape, and of one whole
   client proof bundle; any change to the transcript, the DRBG draw order
   or a committed point shows up here. *)

let range_proof_bytes (p : Range_proof.proof) =
  let buf = Buffer.create 1024 in
  let pt x = Buffer.add_bytes buf (Point.compress x) in
  let sc x = Buffer.add_bytes buf (Scalar.to_bytes x) in
  pt p.Range_proof.a;
  pt p.Range_proof.s;
  pt p.Range_proof.t1;
  pt p.Range_proof.t2;
  sc p.Range_proof.t_hat;
  sc p.Range_proof.tau_x;
  sc p.Range_proof.mu;
  Array.iter pt p.Range_proof.ipa.Ipa.ls;
  Array.iter pt p.Range_proof.ipa.Ipa.rs;
  sc p.Range_proof.ipa.Ipa.a;
  sc p.Range_proof.ipa.Ipa.b;
  Buffer.to_bytes buf

let sha256_hex b = Hashfn.Sha256.hex_digest_string (Bytes.to_string b)

let golden_range_digest (bits, m) =
  let d = Prng.Drbg.create_string (Printf.sprintf "golden-range/%d/%d" bits m) in
  let values = Array.init m (fun _ -> Bigint.of_bytes_le (Prng.Drbg.bytes d (bits / 8))) in
  let blinds = Array.map (fun _ -> Scalar.random d) values in
  let commitments = Array.map2 (fun v r -> Point.double_mul (Scalar.of_bigint v) g r h) values blinds in
  let proof = Range_proof.prove d (Transcript.create "golden") ~gens:bp_gens ~g ~h ~bits ~values ~blinds in
  let ok = Range_proof.verify (Transcript.create "golden") ~gens:bp_gens ~g ~h ~bits ~commitments proof in
  (ok, sha256_hex (range_proof_bytes proof))

let golden_range =
  [
    ((32, 2), "3f04d0972fddf91f2fbdde294483597e92190f4d05f83bdd0babc8ac979d262d");
    ((64, 1), "9b8690fa42ce134561adf5a5cdb92efac61e9586df7abdca8267b284d9451984");
    ((32, 4), "26c25bc89f20e93b48bc890ce6efea80ea52ebb111b697c88d7f7378bfcec600");
    ((128, 1), "d401ecc56d86bb4eaadb16fc4cce365c5eb10d94378faf01e9b172c3109d6699");
    ((16, 3), "d31ea54bf8ec9e0b8580edcaaefef4c6d42635e012916d21667d3a908e84942d");
  ]

let test_golden_range_bytes () =
  List.iter
    (fun (((bits, m) as shape), want) ->
      let ok, got = golden_range_digest shape in
      let name = Printf.sprintf "%dx%d" bits m in
      Alcotest.(check bool) (name ^ " verifies") true ok;
      Alcotest.(check string) (name ^ " proof digest") want got)
    golden_range

(* one full client proof bundle (Wf, squares, σ and μ range proofs) from
   a fixed session seed, hashed over its wire encoding *)
let golden_bundle_digest () =
  let open Risefl_core in
  let n = 3 and d = 16 and k = 2 in
  let udrbg = Prng.Drbg.create_string "golden-bundle/updates" in
  let updates = Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int udrbg 80 - 40)) in
  let bound =
    1.25 *. Array.fold_left (fun acc u -> Float.max acc (Encoding.Fixed_point.l2_norm_encoded u)) 0.0 updates
  in
  let params = Params.make ~n_clients:n ~max_malicious:1 ~d ~k ~m_factor:1024.0 ~bound_b:bound () in
  let setup = Setup.create ~label:"golden-bundle" params in
  let root = Prng.Drbg.create_string "golden-bundle" in
  let clients = Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i))) in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  let commits = Array.mapi (fun i c -> Some (Client.commit_round c ~round:1 ~update:updates.(i))) clients in
  Server.begin_round server ~round:1 ~commits;
  let s, hs = Server.prepare_check server in
  let msg = Client.proof_round clients.(0) ~round:1 ~s ~hs in
  sha256_hex (Serial.encode_proof_msg msg)

let test_golden_bundle_bytes () =
  Alcotest.(check string) "proof_round digest"
    "1b2c43a717c75ad8d4be98939f5eb4f580f4041fced01b6057fac66457a7b1a7" (golden_bundle_digest ())

(* one client's round-1 commit message from a fixed session seed, hashed
   over its wire encoding: the all-to-all frame (wire v1) and the
   k-regular frame (wire v2). Pins the d coordinate commitments
   g^{u_l}·w_l^{r}, the VSSS check string and the sealed shares. *)
let golden_commit_digest ?topo () =
  let open Risefl_core in
  let n = 5 and d = 16 and k = 2 in
  let udrbg = Prng.Drbg.create_string "golden-commit/updates" in
  let updates = Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int udrbg 80 - 40)) in
  let bound =
    1.25 *. Array.fold_left (fun acc u -> Float.max acc (Encoding.Fixed_point.l2_norm_encoded u)) 0.0 updates
  in
  let params = Params.make ~n_clients:n ~max_malicious:1 ~d ~k ~m_factor:1024.0 ~bound_b:bound () in
  let setup = Setup.create ~label:"golden-commit" params in
  let root = Prng.Drbg.create_string "golden-commit" in
  let clients = Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i))) in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  let topo =
    Option.map
      (fun degree ->
        Risefl_topology.Topology.make ~seed:"golden-commit" ~round:1 ~cohort:(Array.init n (fun i -> i + 1))
          ~degree)
      topo
  in
  sha256_hex (Serial.encode_commit_msg (Client.commit_round ?topo clients.(0) ~round:1 ~update:updates.(0)))

let test_golden_commit_bytes () =
  Alcotest.(check string) "commit_round digest (all-to-all, wire v1)"
    "a8617c804b7e3b0727c8d2f02042ae84b0b749ebc04e028c7352fb877874a586" (golden_commit_digest ());
  Alcotest.(check string) "commit_round digest (k-regular, wire v2)"
    "a3b715412849bd778fdcd6ea1cbd6aa1c2902831cb33024878fc233fff9db9fb" (golden_commit_digest ~topo:2 ())

let test_wf_cross_client_transcripts () =
  (* a proof bound to one transcript context must not verify in another *)
  let r, hs, vs, ss, z, es, os = make_wf_instance 2 in
  let tr = Transcript.create "client-1" in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es ~os ~r ~vs ~ss in
  let tv = Transcript.create "client-2" in
  Alcotest.(check bool) "cross-context" false (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os proof);
  (* and with a response array truncated *)
  let tv = Transcript.create "client-1" in
  let bad = { proof with Sigma.Wf.zv = Array.sub proof.Sigma.Wf.zv 0 1 } in
  Alcotest.(check bool) "truncated zv" false (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os bad)

let () =
  Alcotest.run "zkp"
    [
      ( "transcript",
        [
          Alcotest.test_case "deterministic" `Quick test_transcript_deterministic;
          Alcotest.test_case "sensitive" `Quick test_transcript_sensitive;
          Alcotest.test_case "challenge chain" `Quick test_transcript_challenge_chain;
        ] );
      ( "repr",
        [
          Alcotest.test_case "roundtrip" `Quick test_repr_roundtrip;
          Alcotest.test_case "rejects" `Quick test_repr_rejects;
        ] );
      ( "square",
        [
          Alcotest.test_case "roundtrip" `Quick test_square_roundtrip;
          Alcotest.test_case "rejects non-square" `Quick test_square_rejects_nonsquare;
          Alcotest.test_case "small values" `Quick test_square_small_values;
        ] );
      ( "wf",
        [
          Alcotest.test_case "roundtrip" `Quick test_wf_roundtrip;
          Alcotest.test_case "rejects mismatched secret" `Quick test_wf_rejects_mismatched_secret;
          Alcotest.test_case "rejects wrong blind link" `Quick test_wf_rejects_wrong_blind_link;
          Alcotest.test_case "shape validation" `Quick test_wf_shape_validation;
        ] );
      ( "ipa",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipa_roundtrip;
          Alcotest.test_case "factor form" `Quick test_ipa_factor_form;
          Alcotest.test_case "table prover vs fold" `Quick test_ipa_table_vs_fold;
          Alcotest.test_case "verification scalars" `Quick test_ipa_verification_scalars;
          Alcotest.test_case "rejects" `Quick test_ipa_rejects_wrong_p;
        ] );
      ( "range",
        [
          Alcotest.test_case "roundtrip" `Quick test_range_roundtrip;
          Alcotest.test_case "rejects out of range witness" `Quick test_range_rejects_out_of_range;
          Alcotest.test_case "rejects wrong commitment" `Quick test_range_rejects_wrong_commitment;
          Alcotest.test_case "rejects tampered proof" `Quick test_range_rejects_tampered_proof;
          Alcotest.test_case "bits validation" `Quick test_range_bits_validation;
          Alcotest.test_case "size logarithmic" `Quick test_range_proof_size_logarithmic;
          Alcotest.test_case "wrong bits at verify" `Quick test_range_wrong_bits_at_verify;
          Alcotest.test_case "swapped bases" `Quick test_range_swapped_bases;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "ipa field mutations" `Quick test_ipa_mutations;
          Alcotest.test_case "wf cross-client transcript" `Quick test_wf_cross_client_transcripts;
        ] );
      ( "golden",
        [
          Alcotest.test_case "range proof bytes" `Quick test_golden_range_bytes;
          Alcotest.test_case "proof bundle bytes" `Quick test_golden_bundle_bytes;
          Alcotest.test_case "commit message bytes" `Quick test_golden_commit_bytes;
        ] );
    ]
