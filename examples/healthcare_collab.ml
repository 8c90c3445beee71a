(* The paper's Figure 1 scenario: three hospitals train a shared
   diagnostic model on their local medical images without revealing them
   to the coordinating healthcare center, while one compromised hospital
   tries to poison the model with a sign-flip attack.

   Two layers are shown:
   - the learning dynamics over many rounds (float-level simulation of
     the probabilistic check, fast), and
   - one fully cryptographic round on the final gradients, proving the
     actual ZKP pipeline accepts the honest hospitals.

     dune exec examples/healthcare_collab.exe *)

module F = Flsim

let () =
  let drbg = Prng.Drbg.create_string "healthcare" in
  (* stand-in for the hospitals' OrganAMNIST-like image data (784 pixels,
     11 organ classes) — see DESIGN.md substitutions *)
  let data = F.Dataset.organ_like drbg ~n:600 in
  Printf.printf "dataset: %d samples, %d features, %d classes\n" (Array.length data.F.Dataset.y)
    data.F.Dataset.n_features data.F.Dataset.n_classes;

  (* --- learning dynamics: 3 hospitals + 1 attacker-controlled --- *)
  let train checker =
    F.Federated.train
      {
        F.Federated.n_clients = 4;
        n_malicious = 1;
        attack = F.Attack.Sign_flip 6.0;
        checker;
        rounds = 15;
        lr = 0.4;
        batch = None;
        arch = F.Model.Softmax;
        bound_factor = 2.0;
        non_iid_alpha = None;
        seed = "healthcare";
      }
      ~data
  in
  let nc = train F.Federated.Np_nc in
  let rf = train (F.Federated.Risefl (F.Federated.D_l2, 150)) in
  Printf.printf "\nwithout integrity checking, the poisoned model stalls:\n  accuracy  %s\n"
    (String.concat " "
       (Array.to_list
          (Array.map (fun (l : F.Federated.round_log) -> Printf.sprintf "%.2f" l.F.Federated.accuracy) nc.F.Federated.logs)));
  Printf.printf "with RiseFL's probabilistic check, training proceeds:\n  accuracy  %s\n"
    (String.concat " "
       (Array.to_list
          (Array.map (fun (l : F.Federated.round_log) -> Printf.sprintf "%.2f" l.F.Federated.accuracy) rf.F.Federated.logs)));
  Printf.printf "final: no-check %.3f vs RiseFL %.3f\n" nc.F.Federated.final_accuracy
    rf.F.Federated.final_accuracy;

  (* --- one cryptographic round on a small model head --- *)
  print_endline "\nrunning one fully cryptographic aggregation round (d = 64 slice of the model)...";
  let params =
    Risefl_core.Params.make ~n_clients:4 ~max_malicious:1 ~d:64 ~k:8 ~m_factor:128.0 ~bound_b:800.0 ()
  in
  let setup = Risefl_core.Setup.create ~label:"healthcare-crypto" params in
  let fp = params.Risefl_core.Params.fp in
  (* encode a 64-coordinate slice of each hospital's real gradient *)
  let model = F.Model.create drbg F.Model.Softmax ~n_features:784 ~n_classes:11 in
  let parts = F.Dataset.partition data ~parts:4 in
  let updates =
    Array.map
      (fun part ->
        let g = F.Model.gradient model part ~batch:None drbg in
        let slice = Array.sub g 0 64 in
        (* scale gradients into a comfortable fixed-point range *)
        Encoding.Fixed_point.encode_vec fp (Array.map (fun x -> 50.0 *. x) slice))
      parts
  in
  (* hospital 4 flips and amplifies its slice *)
  let behaviours = Risefl_core.Driver.honest_all 4 in
  updates.(3) <- Array.map (fun x -> -40 * x) updates.(3);
  behaviours.(3) <- Risefl_core.Driver.Oversized 40.0;
  let stats =
    Risefl_core.Driver.(
      completed_exn
        (run_round_outcome (create_session setup ~seed:"healthcare-round") ~updates ~behaviours
           ~round:1))
  in
  Printf.printf "flagged hospitals: [%s]  (hospital 4 mounted the attack)\n"
    (String.concat "; " (List.map string_of_int stats.Risefl_core.Driver.flagged));
  match stats.Risefl_core.Driver.aggregate with
  | Some agg ->
      let decoded = Encoding.Fixed_point.decode_vec fp agg in
      Printf.printf "aggregated gradient slice recovered, first coords: %.3f %.3f %.3f ...\n"
        decoded.(0) decoded.(1) decoded.(2)
  | None -> print_endline "aggregation failed (unexpected)"
