module Point = Curve25519.Point
module Scalar = Curve25519.Scalar

type stage_check = {
  stage : string;
  measured : float;
  predicted : float;
  ratio : float;
  lo : float;
  hi : float;
  gated : bool;
  ok : bool;
}

type report = {
  cfg : Cost_model.config;
  ops_per_ge : float;
  stages : stage_check list;
  all_ok : bool;
}

(* point.add + point.double deltas are the measurement primitive; Counter.make
   is idempotent, so these are the same cells Point increments *)
let c_add = Telemetry.Counter.make "point.add"
let c_double = Telemetry.Counter.make "point.double"

let point_ops () = Telemetry.Counter.value c_add + Telemetry.Counter.value c_double

let delta_ops f =
  let before = point_ops () in
  let r = f () in
  (r, point_ops () - before)

(* Tolerance bands on measured/predicted, calibrated at the default
   configuration (n=3, d=256, k=4; see EXPERIMENTS.md for the measured
   ratios they bracket).  Lower bounds catch a model gone stale (the
   prediction inflating relative to the implementation); upper bounds
   catch implementation regressions. *)
let bands =
  [
    (* re-measured after the group-layer fast paths (wNAF mul, Niels
       madd buckets): a calibration group-exp now costs ~299 point ops
       instead of ~331, which inflates every ratio by ~10%; the bands
       bracket the new measured points (1.0, 48, 1.9, 15, 4.2, 1.4) with
       margin only for the wNAF digit-count jitter of the random
       calibration scalars *)
    (* the commit's d blind exponentiations w_l^r run on the setup's
       4-block comb tables (15 doublings + 64 madds each, against ~299
       ops for a variable-base mul): measured 0.30, tables built before
       the count; 0.46 with the 1-block comb (63 doublings each), which
       the upper bound fails *)
    ("client-commit", (0.24, 0.4));
    (* absolute proof-gen cost at CI scale is dominated by the range
       proofs' O(k*b_ip + b_max) committed bits, which the asymptotic
       d/log d row drops; the marginal stage below carries the tight check
       of the d-scaling claim.  Measured 16.5 since the range prover runs
       S and each IPA round's L/R as fixed-base table MSMs over the
       generators (Msm.Fixed, ~32 madds and no doublings per term),
       tables built before the count; 27.9 with the fold prover (one
       variable-base mul per folded generator), which the upper bound
       fails *)
    ("client-proofgen", (12.0, 22.0));
    (* the d-dependent part of a proof is d-term MSMs over w, on the
       signed-digit Pippenger (2^(c-1) buckets, c from the cost model):
       measured 1.33; 2.66 with unsigned digits and c = lg n - 1, which
       the upper bound fails *)
    ("proofgen-marginal", (0.9, 2.0));
    (* h_0 and the h_t as signed-digit Pippenger MSMs over w: measured
       10.8 (11.3 with unsigned digits, inside the same band) *)
    ("server-prep", (8.0, 25.0));
    (* each batch runs its clients' summed Bulletproofs generator
       coefficients as one table MSM (Msm.Fixed, tables built before the
       count) and only the remaining terms on the signed-digit
       Pippenger (every MSM above 64 terms): measured 1.76;
       2.34 with unsigned digits and Straus up to 256 terms, which the
       upper bound fails *)
    ("server-verify", (1.3, 2.2));
    ("comm", (1.0, 2.2));
  ]

let mk_stage ?(gated = true) stage measured predicted =
  let ratio = if predicted > 0.0 then measured /. predicted else 0.0 in
  let lo, hi = try List.assoc stage bands with Not_found -> (0.0, infinity) in
  let ok = (not gated) || (ratio >= lo && ratio <= hi) in
  { stage; measured; predicted; ratio; lo; hi; gated; ok }

(* Proof generation for client 1 of a fresh session: commit everyone,
   prepare the check, measure one proof_round.  Used twice (at d and 2d)
   to isolate the d-dependent part of proof generation from the
   d-independent range-proof floor. *)
let measure_proofgen ~n ~m ~d ~k ~seed =
  let udrbg = Prng.Drbg.create_string (seed ^ "/updates") in
  let updates =
    Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int udrbg 80 - 40))
  in
  let bound =
    1.25
    *. Array.fold_left
         (fun acc u -> Float.max acc (Encoding.Fixed_point.l2_norm_encoded u))
         0.0 updates
  in
  let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:1024.0 ~bound_b:bound () in
  let setup = Setup.create ~label:(Printf.sprintf "table1-check/marginal/%d/%d" d k) params in
  let root = Prng.Drbg.create_string seed in
  let clients =
    Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i)))
  in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  let commits =
    Array.map Option.some
      (Array.mapi (fun i c -> Client.commit_round c ~round:1 ~update:updates.(i)) clients)
  in
  Server.begin_round server ~round:1 ~commits;
  let s, hs = Server.prepare_check server in
  let hs_tables = Parallel.parallel_map Point.Table.make hs in
  ignore (Zkp.Range_proof.tables setup.Setup.bp_gens);
  let _, ops = delta_ops (fun () -> Client.proof_round ~hs_tables clients.(0) ~round:1 ~s ~hs) in
  ops

let run ?(n = 3) ?(m = 1) ?(d = 256) ?(k = 4) ?(seed = "table1-check") () =
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Telemetry.disable ())
  @@ fun () ->
  (* synthetic honest workload, same shape as the bench harness *)
  let udrbg = Prng.Drbg.create_string (seed ^ "/updates") in
  let updates =
    Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int udrbg 80 - 40))
  in
  let bound =
    1.25
    *. Array.fold_left
         (fun acc u -> Float.max acc (Encoding.Fixed_point.l2_norm_encoded u))
         0.0 updates
  in
  let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:1024.0 ~bound_b:bound () in
  let setup = Setup.create ~label:(Printf.sprintf "table1-check/%d/%d" d k) params in
  let root = Prng.Drbg.create_string seed in
  let clients =
    Array.init n (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i)))
  in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  (* calibrate ops-per-group-exponentiation with full-width variable-base
     multiplications — the unit Table 1 counts in *)
  let cal = Prng.Drbg.fork root "calibrate" in
  let cal_point = Point.mul_base (Scalar.random cal) in
  let reps = 8 in
  let (), cal_ops =
    delta_ops (fun () ->
        for _ = 1 to reps do
          ignore (Point.mul (Scalar.random cal) cal_point)
        done)
  in
  let ops_per_ge = float_of_int cal_ops /. float_of_int reps in
  let ge ops = float_of_int ops /. ops_per_ge in
  (* --- commit (client 1 measured; the rest uncounted for the table) ---
     the w comb tables are built before the count: the one-time build
     belongs to no round, and the row measures the steady-state commit
     every round after the first pays *)
  ignore (Setup.w_comb setup);
  let c0, commit_ops =
    delta_ops (fun () -> Client.commit_round clients.(0) ~round:1 ~update:updates.(0))
  in
  let rest =
    Array.init (n - 1) (fun i -> Client.commit_round clients.(i + 1) ~round:1 ~update:updates.(i + 1))
  in
  let commits = Array.map Option.some (Array.append [| c0 |] rest) in
  Server.begin_round server ~round:1 ~commits;
  let msgs = Array.map Option.get commits in
  let f0 = Client.receive_shares clients.(0) ~round:1 ~msgs in
  for i = 1 to n - 1 do
    ignore (Client.receive_shares clients.(i) ~round:1 ~msgs)
  done;
  (* --- server prep: sample A, compute h --- *)
  let (s, hs), prep_ops = delta_ops (fun () -> Server.prepare_check server) in
  (* the h_t fixed-base tables are shared per-round precompute, amortized
     over all n clients; kept out of the per-stage attribution *)
  let hs_tables = Parallel.parallel_map Point.Table.make hs in
  (* --- proof generation (client 1 measured) ---
     the range prover's generator tables are built before the count, as
     the w comb tables are before the commit's *)
  ignore (Zkp.Range_proof.tables setup.Setup.bp_gens);
  let p0, gen_ops =
    delta_ops (fun () -> Client.proof_round ~hs_tables clients.(0) ~round:1 ~s ~hs)
  in
  let prest =
    Array.init (n - 1) (fun i -> Client.proof_round ~hs_tables clients.(i + 1) ~round:1 ~s ~hs)
  in
  let proofs = Array.map Option.some (Array.append [| p0 |] prest) in
  (* --- server verification, all n clients, batched --- *)
  let (), ver_ops = delta_ops (fun () -> Server.verify_proofs server ~round:1 ~proofs) in
  if Server.malicious server <> [] then failwith "table1_check: honest round was rejected";
  (* --- aggregation --- *)
  let honest = Server.honest server in
  let agg_msgs = Array.map (fun c -> Some (Client.agg_round c ~honest)) clients in
  let agg_result, agg_ops = delta_ops (fun () -> Server.aggregate server ~agg_msgs) in
  (match agg_result with
  | Ok _ -> ()
  | Error e -> failwith ("table1_check: aggregation failed: " ^ Server.agg_error_to_string e));
  (* --- per-client upload in group-element equivalents --- *)
  let upload =
    Wire.commit_msg_size c0 + Wire.flag_msg_size f0 + Wire.proof_msg_size p0
    + match agg_msgs.(0) with Some a -> Wire.agg_msg_size a | None -> 0
  in
  let comm_elements = float_of_int upload /. float_of_int Wire.point_size in
  let cfg =
    {
      Cost_model.n;
      m;
      d;
      k;
      b = 16;
      log_m_factor = 10 (* m_factor = 1024 *);
      log_p = 253;
    }
  in
  let pred = Cost_model.risefl cfg in
  (* marginal d-scaling of proof generation: measured and predicted
     deltas between d and 2d, cancelling the d-independent range-proof
     term that dominates the absolute count at CI scale *)
  let gen2_ops = measure_proofgen ~n ~m ~d:(2 * d) ~k ~seed:(seed ^ "/marginal") in
  let pred2 = Cost_model.risefl { cfg with Cost_model.d = 2 * d } in
  let marginal_measured = ge gen2_ops -. ge gen_ops in
  let marginal_predicted =
    pred2.Cost_model.client_proof_gen_ge -. pred.Cost_model.client_proof_gen_ge
  in
  let stages =
    [
      mk_stage "client-commit" (ge commit_ops) pred.Cost_model.client_commit_ge;
      mk_stage "client-proofgen" (ge gen_ops) pred.Cost_model.client_proof_gen_ge;
      mk_stage "proofgen-marginal" marginal_measured marginal_predicted;
      mk_stage "server-prep" (ge prep_ops) pred.Cost_model.server_prep_ge;
      mk_stage "server-verify" (ge ver_ops) pred.Cost_model.server_proof_ver_ge;
      (* Table 1 counts aggregation in amortized-decode units (n·d/log p);
         the implementation pays d blind-peel exponentiations plus BSGS
         steps, so the ratio is structurally large — reported, not gated *)
      mk_stage ~gated:false "server-agg" (ge agg_ops) pred.Cost_model.server_agg_ge;
      mk_stage "comm" comm_elements pred.Cost_model.comm_elements_per_client;
    ]
  in
  { cfg; ops_per_ge; stages; all_ok = List.for_all (fun st -> st.ok) stages }

let to_table r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "measured vs Table 1 (RiseFL row): n=%d m=%d d=%d k=%d, ops/ge=%.0f\n%-18s %12s %12s %8s %14s  %s\n"
       r.cfg.Cost_model.n r.cfg.Cost_model.m r.cfg.Cost_model.d r.cfg.Cost_model.k r.ops_per_ge
       "stage" "measured" "predicted" "ratio" "band" "verdict");
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf "%-18s %12.1f %12.1f %8.2f %14s  %s\n" st.stage st.measured st.predicted
           st.ratio
           (if st.gated then Printf.sprintf "[%.2g, %.2g]" st.lo st.hi else "-")
           (if not st.gated then "info" else if st.ok then "ok" else "FAIL")))
    r.stages;
  Buffer.contents buf
