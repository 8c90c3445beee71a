(* Differential + soundness tests for the batched (random-linear-
   combination) verifier, [Server.verify_proofs], against the naive
   per-equation oracle, [Server.verify_proofs_naive].

   - Valid proofs: both paths accept, across jobs ∈ {1, 2, 4}.
   - Structural failures (missing proof, sender mismatch): identical C*.
   - Seeded corruption corpus: for EVERY point and EVERY scalar of a
     genuine proof bundle, a single corruption (point += g, scalar += 1)
     must be rejected by BOTH paths with the SAME C* attribution. The
     full corpus runs at jobs = 1; a stride of it re-runs at jobs = 2
     and 4 to pin jobs-invariance of the batched bisection.
   - Multi-client corruption: the failure bisection must attribute every
     corrupted client, and only those.
   - [Server.block_sum], which judges every batch and bisection step,
     against one Msm.msm over every term with each generator coefficient
     expanded to a term of its own: random batches with a wire point
     that carries a small-order component, and range proofs over a
     generator set longer than Ipa.table_cutoff.

   BATCH_STRIDE (default 1 = full corpus) subsamples the corpus for
   quicker local iterations. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Client = Risefl_core.Client
module Server = Risefl_core.Server
module Wire = Risefl_core.Wire
module Point = Curve25519.Point
module Scalar = Curve25519.Scalar
module Wf = Zkp.Sigma.Wf
module Square = Zkp.Sigma.Square
module Rp = Zkp.Range_proof
module Ipa = Zkp.Ipa

let stride =
  match Sys.getenv_opt "BATCH_STRIDE" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
  | None -> 1

(* Small parameters keep each verify cheap while still exercising every
   proof component: k = 2 squares, 16-bit sigma ranges (nt = 32), a
   64-bit mu range (nt = 64), 5- and 6-round IPAs. *)
let params =
  Params.make ~n_clients:4 ~max_malicious:1 ~d:8 ~k:2 ~b_ip_bits:16 ~b_max_bits:64 ~m_factor:8.0
    ~bound_b:150.0 ()

let setup = Setup.create ~label:"test-batch-verify" params
let n = 4

(* One genuine round, built once: the corruption trials only re-run the
   verify stage (begin_round resets C*; the (s, h) state is untouched). *)
let clients, server, commits, proofs =
  let root = Prng.Drbg.create_string "batch-verify-seed" in
  let clients =
    Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i)))
  in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  let updates = Array.init n (fun i -> Array.init 8 (fun l -> (i * l) - 4)) in
  let commits =
    Array.map Option.some
      (Array.mapi (fun i c -> Client.commit_round c ~round:1 ~update:updates.(i)) clients)
  in
  Server.begin_round server ~round:1 ~commits;
  let flags = Array.map (fun c -> Client.receive_shares c ~round:1 ~msgs:(Array.map Option.get commits)) clients in
  ignore flags;
  let s, hs = Server.prepare_check server in
  let proofs = Array.map (fun c -> Client.proof_round c ~round:1 ~s ~hs) clients in
  (clients, server, commits, proofs)

let verdict ~naive ~jobs trial_proofs =
  Server.begin_round server ~round:1 ~commits;
  if naive then Server.verify_proofs_naive ~jobs server ~round:1 ~proofs:trial_proofs
  else Server.verify_proofs ~jobs server ~round:1 ~proofs:trial_proofs;
  Server.malicious server

let check_both ~name ~jobs ~expected trial_proofs =
  let naive = verdict ~naive:true ~jobs trial_proofs in
  let batched = verdict ~naive:false ~jobs trial_proofs in
  Alcotest.(check (list int)) (name ^ " naive verdict (jobs=" ^ string_of_int jobs ^ ")") expected naive;
  Alcotest.(check (list int)) (name ^ " batched = naive (jobs=" ^ string_of_int jobs ^ ")") naive batched

(* --- single-field corruption corpus --- *)

let bump_pt p = Point.add p setup.Setup.g
let bump_sc s = Scalar.add s Scalar.one
let bump_parr arr i = Array.mapi (fun j x -> if j = i then bump_pt x else x) arr
let bump_sarr arr i = Array.mapi (fun j x -> if j = i then bump_sc x else x) arr

let mut_wf (w : Wf.proof) =
  List.concat
    [
      [ ("az", { w with Wf.az = bump_pt w.Wf.az }); ("zr", { w with Wf.zr = bump_sc w.Wf.zr }) ];
      List.init (Array.length w.Wf.ae) (fun i ->
          (Printf.sprintf "ae[%d]" i, { w with Wf.ae = bump_parr w.Wf.ae i }));
      List.init (Array.length w.Wf.ao) (fun i ->
          (Printf.sprintf "ao[%d]" i, { w with Wf.ao = bump_parr w.Wf.ao i }));
      List.init (Array.length w.Wf.zv) (fun i ->
          (Printf.sprintf "zv[%d]" i, { w with Wf.zv = bump_sarr w.Wf.zv i }));
      List.init (Array.length w.Wf.zs) (fun i ->
          (Printf.sprintf "zs[%d]" i, { w with Wf.zs = bump_sarr w.Wf.zs i }));
    ]

let mut_square (sq : Square.proof) =
  [
    ("a1", { sq with Square.a1 = bump_pt sq.Square.a1 });
    ("a2", { sq with Square.a2 = bump_pt sq.Square.a2 });
    ("zx", { sq with Square.zx = bump_sc sq.Square.zx });
    ("zs", { sq with Square.zs = bump_sc sq.Square.zs });
    ("zs'", { sq with Square.zs' = bump_sc sq.Square.zs' });
  ]

let mut_ipa (ip : Ipa.proof) =
  List.concat
    [
      List.init (Array.length ip.Ipa.ls) (fun j ->
          (Printf.sprintf "ls[%d]" j, { ip with Ipa.ls = bump_parr ip.Ipa.ls j }));
      List.init (Array.length ip.Ipa.rs) (fun j ->
          (Printf.sprintf "rs[%d]" j, { ip with Ipa.rs = bump_parr ip.Ipa.rs j }));
      [ ("a", { ip with Ipa.a = bump_sc ip.Ipa.a }); ("b", { ip with Ipa.b = bump_sc ip.Ipa.b }) ];
    ]

let mut_rp (rp : Rp.proof) =
  [
    ("a", { rp with Rp.a = bump_pt rp.Rp.a });
    ("s", { rp with Rp.s = bump_pt rp.Rp.s });
    ("t1", { rp with Rp.t1 = bump_pt rp.Rp.t1 });
    ("t2", { rp with Rp.t2 = bump_pt rp.Rp.t2 });
    ("t_hat", { rp with Rp.t_hat = bump_sc rp.Rp.t_hat });
    ("tau_x", { rp with Rp.tau_x = bump_sc rp.Rp.tau_x });
    ("mu", { rp with Rp.mu = bump_sc rp.Rp.mu });
  ]
  @ List.map (fun (nm, ip) -> ("ipa." ^ nm, { rp with Rp.ipa = ip })) (mut_ipa rp.Rp.ipa)

(* every single-field corruption of one proof bundle, labeled *)
let mutations (m : Wire.proof_msg) =
  List.concat
    [
      List.init (Array.length m.Wire.es) (fun i ->
          (Printf.sprintf "es[%d]" i, { m with Wire.es = bump_parr m.Wire.es i }));
      List.init (Array.length m.Wire.os) (fun i ->
          (Printf.sprintf "os[%d]" i, { m with Wire.os = bump_parr m.Wire.os i }));
      List.init (Array.length m.Wire.os') (fun i ->
          (Printf.sprintf "os'[%d]" i, { m with Wire.os' = bump_parr m.Wire.os' i }));
      List.map (fun (nm, w) -> ("wf." ^ nm, { m with Wire.wf = w })) (mut_wf m.Wire.wf);
      List.concat
        (List.init (Array.length m.Wire.squares) (fun i ->
             List.map
               (fun (nm, sq) ->
                 ( Printf.sprintf "squares[%d].%s" i nm,
                   {
                     m with
                     Wire.squares = Array.mapi (fun j x -> if j = i then sq else x) m.Wire.squares;
                   } ))
               (mut_square m.Wire.squares.(i))));
      List.map (fun (nm, rp) -> ("sigma_range." ^ nm, { m with Wire.sigma_range = rp })) (mut_rp m.Wire.sigma_range);
      List.map (fun (nm, rp) -> ("mu_range." ^ nm, { m with Wire.mu_range = rp })) (mut_rp m.Wire.mu_range);
    ]

(* --- tests --- *)

let all_some = Array.map Option.some proofs

let test_valid_all_jobs () =
  List.iter (fun jobs -> check_both ~name:"valid" ~jobs ~expected:[] all_some) [ 1; 2; 4 ]

let test_structural () =
  (* a missing proof *)
  let dropped = Array.copy all_some in
  dropped.(1) <- None;
  List.iter (fun jobs -> check_both ~name:"dropout" ~jobs ~expected:[ 2 ] dropped) [ 1; 2; 4 ];
  (* a relayed proof: right shape, wrong sender slot *)
  let hijacked = Array.copy all_some in
  hijacked.(2) <- Some { proofs.(0) with Wire.sender = 3 };
  List.iter (fun jobs -> check_both ~name:"sender-mismatch" ~jobs ~expected:[ 3 ] hijacked) [ 1; 2 ]

let test_corruption_corpus () =
  (* full corpus on client 1 at jobs=1; every 5th mutation re-checked at
     jobs=2 and 4 (the verdict must not depend on the domain count) *)
  let muts = mutations proofs.(0) in
  Alcotest.(check bool) "corpus covers all proof fields" true (List.length muts > 60);
  List.iteri
    (fun idx (name, bad_proof) ->
      if idx mod stride = 0 then begin
        let trial = Array.copy all_some in
        trial.(0) <- Some bad_proof;
        check_both ~name:("corrupt " ^ name) ~jobs:1 ~expected:[ 1 ] trial;
        if idx mod 5 = 0 then begin
          check_both ~name:("corrupt " ^ name) ~jobs:2 ~expected:[ 1 ] trial;
          check_both ~name:("corrupt " ^ name) ~jobs:4 ~expected:[ 1 ] trial
        end
      end)
    muts

let test_corruption_other_client () =
  (* same corruption semantics when the bad client is not the first: the
     bisection must not be position-sensitive *)
  let muts = mutations proofs.(2) in
  List.iteri
    (fun idx (name, bad_proof) ->
      if idx mod (5 * stride) = 0 then begin
        let trial = Array.copy all_some in
        trial.(2) <- Some bad_proof;
        check_both ~name:("corrupt c3 " ^ name) ~jobs:1 ~expected:[ 3 ] trial
      end)
    muts

let test_multi_client_bisection () =
  (* two corrupted clients in the same round: one giant MSM fails, and
     the bisection must attribute exactly both *)
  let m1 = { proofs.(0) with Wire.wf = { proofs.(0).Wire.wf with Wf.zr = bump_sc proofs.(0).Wire.wf.Wf.zr } } in
  let m3 = { proofs.(3) with Wire.sigma_range = { proofs.(3).Wire.sigma_range with Rp.t_hat = bump_sc proofs.(3).Wire.sigma_range.Rp.t_hat } } in
  let trial = Array.copy all_some in
  trial.(0) <- Some m1;
  trial.(3) <- Some m3;
  List.iter (fun jobs -> check_both ~name:"two-corrupt" ~jobs ~expected:[ 1; 4 ] trial) [ 1; 2; 4 ];
  (* all four corrupted: nothing survives *)
  let all_bad =
    Array.map
      (fun p ->
        match p with
        | Some (m : Wire.proof_msg) -> Some { m with Wire.wf = { m.Wire.wf with Wf.zr = bump_sc m.Wire.wf.Wf.zr } }
        | None -> None)
      all_some
  in
  check_both ~name:"all-corrupt" ~jobs:1 ~expected:[ 1; 2; 3; 4 ] all_bad

(* --- block sums --- *)

let msm_drbg = Prng.Drbg.create_string "batch-verify-block-sum"
let rand_scalar () = Scalar.random msm_drbg

(* (0, −1) has order 2 *)
let two_torsion =
  Option.get (Point.decompress_unchecked (Curve25519.Fe.to_bytes (Curve25519.Fe.neg Curve25519.Fe.one)))

(* base l of [Rp.tables gens], from the generators themselves: g_l at l,
   h_{l−c} at c ≤ l < 2c, u at 2c *)
let table_base (gens : Rp.gens) l =
  let c = (Array.length (Rp.gen_vector gens) - 1) / 2 in
  if l < c then gens.Rp.gv.(l) else if l < 2 * c then gens.Rp.hv.(l - c) else gens.Rp.u

let expanded_sum gens blocks =
  Curve25519.Msm.msm
    (Array.concat
       (List.concat_map
          (fun (terms, gen) -> [ terms; Array.mapi (fun l s -> (s, table_base gens l)) gen ])
          (Array.to_list blocks)))

let test_block_sum_random () =
  let gens = setup.Setup.bp_gens in
  let tables = Rp.tables gens in
  for trial = 1 to 12 do
    let blocks =
      Array.init (1 + (trial mod 4)) (fun b ->
          let terms =
            Array.init (2 + ((trial + b) mod 5)) (fun i ->
                let p = Point.mul_base (rand_scalar ()) in
                (rand_scalar (), if i = 0 then Point.add p two_torsion else p))
          in
          (* half the coefficients zero, which block_sum leaves out *)
          let gen =
            Array.mapi
              (fun l _ -> if (l + b) mod 2 = 0 then rand_scalar () else Scalar.zero)
              (Rp.gen_vector gens)
          in
          (terms, gen))
    in
    let got = Server.block_sum tables blocks in
    Alcotest.(check bool) (Printf.sprintf "trial %d: block sum = expanded MSM" trial) true
      (Point.equal (expanded_sum gens blocks) got);
    Alcotest.(check bool) (Printf.sprintf "trial %d: not the identity" trial) false (Point.is_identity got)
  done;
  (* the torsion term alone: a block sum must keep it exact *)
  let t = [| ([| (Scalar.one, two_torsion) |], Rp.gen_vector gens) |] in
  Alcotest.(check bool) "torsion term survives" true (Point.equal two_torsion (Server.block_sum tables t))

(* a 512-bit vector (128 bits × 4 values) over 512 generators: the
   tables hold the first 256 g's and h's, so indices 256 … 511 must reach
   the terms; valid proofs sum to the identity, a corrupted one to the
   expanded MSM, and both agree with Range_proof.verify *)
let test_block_sum_past_cutoff () =
  let nt = 512 in
  Alcotest.(check bool) "past the cutoff" true (nt > Ipa.table_cutoff);
  let gens = Rp.make_gens ~label:"test-batch-verify/wide" nt in
  let tables = Rp.tables gens in
  let g = setup.Setup.g and h = setup.Setup.q in
  let values = Array.init 4 (fun j -> Bigint.of_int ((j * 7919) + 3)) in
  let blinds = Array.init 4 (fun _ -> rand_scalar ()) in
  let commitments = Array.mapi (fun j v -> Point.double_mul (Scalar.of_bigint v) g blinds.(j) h) values in
  let proof =
    Rp.prove msm_drbg (Zkp.Transcript.create "wide") ~gens ~g ~h ~bits:128 ~values ~blinds
  in
  let block proof =
    let terms = ref [] and gen = Rp.gen_vector gens in
    let ok =
      Rp.accumulate ~rho:rand_scalar
        ~push:(fun s p -> terms := (s, p) :: !terms)
        ~gen (Zkp.Transcript.create "wide") ~gens ~g ~h ~bits:128 ~commitments proof
    in
    Alcotest.(check bool) "accumulates" true ok;
    (Array.of_list !terms, gen)
  in
  let naive proof = Rp.verify (Zkp.Transcript.create "wide") ~gens ~g ~h ~bits:128 ~commitments proof in
  let terms, gen = block proof in
  let c = Ipa.table_cutoff in
  let on_terms base = Array.exists (fun (_, p) -> p == base) terms in
  Alcotest.(check bool) "table width" true (Array.length gen = (2 * c) + 1);
  for i = 0 to nt - 1 do
    if on_terms gens.Rp.gv.(i) <> (i >= c) || on_terms gens.Rp.hv.(i) <> (i >= c) then
      Alcotest.failf "generator %d: on the terms iff past the cutoff" i
  done;
  Alcotest.(check bool) "naive accepts" true (naive proof);
  Alcotest.(check bool) "valid block sums to the identity" true
    (Point.is_identity (Server.block_sum tables [| (terms, gen) |]));
  let bad = { proof with Rp.mu = Scalar.add proof.Rp.mu Scalar.one } in
  let blocks = [| block proof; block bad |] in
  let got = Server.block_sum tables blocks in
  Alcotest.(check bool) "naive rejects" false (naive bad);
  Alcotest.(check bool) "corrupted batch is not the identity" false (Point.is_identity got);
  Alcotest.(check bool) "block sum = expanded MSM" true (Point.equal (expanded_sum gens blocks) got)

let () =
  ignore clients;
  Alcotest.run "batch-verify"
    [
      ( "differential",
        [
          Alcotest.test_case "valid proofs, jobs 1/2/4" `Quick test_valid_all_jobs;
          Alcotest.test_case "structural failures" `Quick test_structural;
          Alcotest.test_case "multi-client bisection" `Quick test_multi_client_bisection;
          Alcotest.test_case "block sum, random batches" `Quick test_block_sum_random;
          Alcotest.test_case "block sum past the table cutoff" `Quick test_block_sum_past_cutoff;
          Alcotest.test_case "corruption corpus (client 1)" `Slow test_corruption_corpus;
          Alcotest.test_case "corruption corpus (client 3, stride)" `Slow test_corruption_other_client;
        ] );
    ]
