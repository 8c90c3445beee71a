(* Quickstart: one secure-and-verifiable aggregation round.

   Five clients each hold a small gradient vector; the server learns only
   the sum, and every client proves (in zero knowledge) that its update's
   L2 norm is within the agreed bound.

     dune exec examples/quickstart.exe *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver

let () =
  (* 1. Agree on system parameters (§4.2 of the paper): 5 clients, at most
     1 malicious, 16 model parameters, k = 4 random projections, and an
     L2 bound of 500 (in fixed-point encoded units). *)
  let params =
    Params.make ~n_clients:5 ~max_malicious:1 ~d:16 ~k:4 ~m_factor:64.0 ~bound_b:500.0 ()
  in
  (* 2. Derive the public setup (generators g, q, w_1..w_d, Bulletproof
     generators) — deterministic, no trusted party. *)
  let setup = Setup.create ~label:"quickstart-demo" params in
  Printf.printf "setup ready: d=%d, k=%d, B0 has %d bits\n" params.Params.d params.Params.k
    (Bigint.bit_length setup.Setup.b0);

  (* 3. Each client brings a (here: synthetic) fixed-point encoded update. *)
  let updates = Array.init 5 (fun i -> Array.init 16 (fun l -> ((i + 1) * (l - 8)) mod 50)) in
  Array.iteri
    (fun i u ->
      Printf.printf "client %d: ||u||_2 = %.1f (bound %.0f)\n" (i + 1)
        (Encoding.Fixed_point.l2_norm_encoded u) params.Params.bound_b)
    updates;

  (* 4. Run one full iteration: hybrid commitments, share verification,
     probabilistic L2 proof generation + verification, secure aggregation. *)
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome
         (Driver.create_session setup ~seed:"quickstart")
         ~updates ~behaviours:(Driver.honest_all 5) ~round:1)
  in

  (* 5. The server ends with exactly the sum of the updates — and nothing
     else about any individual client. *)
  (match stats.Driver.aggregate with
  | Some agg ->
      Printf.printf "aggregate: [%s]\n"
        (String.concat "; " (Array.to_list (Array.map string_of_int agg)));
      let expected = Array.init 16 (fun l -> Array.fold_left (fun a u -> a + u.(l)) 0 updates) in
      Printf.printf "matches plaintext sum: %b\n" (agg = expected)
  | None -> print_endline "aggregation failed (unexpected)");
  Printf.printf "flagged clients: [%s]\n"
    (String.concat "; " (List.map string_of_int stats.Driver.flagged));
  Printf.printf
    "timings: commit %.2fs, proof %.2fs per client; server verify %.2fs; comm %.1f KB up / %.1f KB down\n"
    stats.Driver.client_commit_s stats.Driver.client_proof_s stats.Driver.server_verify_s
    (float_of_int stats.Driver.client_up_bytes /. 1024.0)
    (float_of_int stats.Driver.client_down_bytes /. 1024.0)
