(* Baseline face-off: run RiseFL, EIFFeL, RoFL and ACORN on the same
   workload and print the Table-2-style per-stage comparison — the
   miniature of the paper's headline result (28x/53x/164x client-side
   speedups at large d).

     dune exec examples/baseline_faceoff.exe *)

module Driver = Risefl_core.Driver

let n = 3
let d = 64
let k = 16

let () =
  Printf.printf "=== Same workload, four systems (n=%d, d=%d, 16-bit fixed point) ===\n\n" n d;
  let drbg = Prng.Drbg.create_string "faceoff" in
  let updates = Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int drbg 80 - 40)) in
  let bound =
    1.25
    *. Array.fold_left (fun acc u -> Float.max acc (Encoding.Fixed_point.l2_norm_encoded u)) 0.0 updates
  in
  let expected = Array.init d (fun l -> Array.fold_left (fun a u -> a + u.(l)) 0 updates) in
  Printf.printf "%-8s | %10s %10s %10s | %10s %10s | %10s %8s\n" "system" "commit(s)" "prfgen(s)"
    "prfver(s)" "srv-ver(s)" "agg(s)" "comm(KB)" "correct";

  let show name commit gen ver sver agg comm ok =
    Printf.printf "%-8s | %10.3f %10.3f %10.3f | %10.3f %10.3f | %10.1f %8b\n" name commit gen ver
      sver agg (float_of_int comm /. 1024.0) ok
  in

  (* EIFFeL *)
  let setup = Baselines.Eiffel.create_setup ~label:"faceoff" ~d ~bits:16 ~n ~m:1 in
  let o = Baselines.Eiffel.run setup ~updates ~bound_b:bound ~cheat:(Array.make n false) ~seed:"f-e" in
  let t = o.Baselines.Types.timings in
  show "EIFFeL" t.Baselines.Types.client_commit_s t.Baselines.Types.client_proof_gen_s
    t.Baselines.Types.client_proof_ver_s t.Baselines.Types.server_verify_s
    t.Baselines.Types.server_agg_s t.Baselines.Types.client_comm_bytes
    (o.Baselines.Types.aggregate = Some expected);

  (* RoFL *)
  let setup = Baselines.Rofl.create_setup ~label:"faceoff" ~d ~bits:16 in
  let o = Baselines.Rofl.run setup ~updates ~bound_b:bound ~cheat:(Array.make n false) ~seed:"f-r" in
  let t = o.Baselines.Types.timings in
  show "RoFL" t.Baselines.Types.client_commit_s t.Baselines.Types.client_proof_gen_s
    t.Baselines.Types.client_proof_ver_s t.Baselines.Types.server_verify_s
    t.Baselines.Types.server_agg_s t.Baselines.Types.client_comm_bytes
    (o.Baselines.Types.aggregate = Some expected);

  (* ACORN *)
  let setup = Baselines.Acorn.create_setup ~label:"faceoff" ~d ~bits:16 in
  let o = Baselines.Acorn.run setup ~updates ~bound_b:bound ~cheat:(Array.make n false) ~seed:"f-a" in
  let t = o.Baselines.Types.timings in
  show "ACORN" t.Baselines.Types.client_commit_s t.Baselines.Types.client_proof_gen_s
    t.Baselines.Types.client_proof_ver_s t.Baselines.Types.server_verify_s
    t.Baselines.Types.server_agg_s t.Baselines.Types.client_comm_bytes
    (o.Baselines.Types.aggregate = Some expected);

  (* RiseFL *)
  let params =
    Risefl_core.Params.make ~n_clients:n ~max_malicious:1 ~d ~k ~m_factor:1024.0 ~bound_b:bound ()
  in
  let setup = Risefl_core.Setup.create ~label:"faceoff-risefl" params in
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome (Driver.create_session setup ~seed:"f-rf") ~updates
         ~behaviours:(Driver.honest_all n) ~round:1)
  in
  show "RiseFL" stats.Driver.client_commit_s stats.Driver.client_proof_s
    stats.Driver.client_share_verify_s
    (stats.Driver.server_prep_s +. stats.Driver.server_verify_s)
    stats.Driver.server_agg_s
    (stats.Driver.client_up_bytes + stats.Driver.client_down_bytes)
    (stats.Driver.aggregate = Some expected);

  print_newline ();
  Printf.printf
    "All four transported the same sum under different privacy/integrity machinery.\n\
     The gaps grow with d (see `dune exec bench/main.exe -- table2`): RiseFL's proof\n\
     cost is ~O(d/log d + k) group operations, RoFL's is O(d·b), ACORN's O(d), and\n\
     EIFFeL pushes O(n·m·d) verification work onto every client.\n"
