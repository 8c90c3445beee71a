(* Timed direct calls into single layers at the workload's sizes, made
   by the traced run after its rounds. They time work the round does
   inside another layer's call (range proofs inside Client.proof_round,
   sampling inside Server.prepare_check, ...) and give every layer a
   time on every workload: a layer the workload's round does not use is
   probed here instead of read from the round's spans. *)

open Risefl_core
module Point = Curve25519.Point
module Scalar = Curve25519.Scalar
module Topology = Risefl_topology.Topology

(* [reps] timed calls of [f] (each on fresh inputs from [prep]); the
   median per call *)
let probe ~reps prep f =
  let xs =
    List.init reps (fun _ ->
        let x = prep () in
        snd (Bench_util.time (fun () -> ignore (Sys.opaque_identity (f x)))))
  in
  Bench_util.median xs

let run (w : Workload.t) (setup : Setup.t) ~dir ~aggregate ~commit_frame ~pks =
  let p = setup.Setup.params in
  let drbg = Prng.Drbg.create_string ("perfbench/probes/" ^ w.Workload.name) in
  let rand () = Scalar.random drbg in
  let g = setup.Setup.g and q = setup.Setup.q in
  let gmul s = Point.Table.mul setup.Setup.g_table s and qmul s = Point.Table.mul setup.Setup.q_table s in
  let gens = setup.Setup.bp_gens in
  let tr () = Zkp.Transcript.create "perfbench/probe" in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  (* zkp: the client's σ range proof (k values of b_ip bits), its μ range
     proof (one value of b_max bits), the IPA at the σ width, and the
     Σ-protocols of the bundle *)
  let range name ~bits ~count =
    let stmt () =
      let values =
        Array.init count (fun _ -> Bigint.of_int (Prng.Drbg.uniform_int drbg (1 lsl min 30 (bits - 1))))
      in
      let blinds = Array.init count (fun _ -> rand ()) in
      let commitments = Array.mapi (fun j v -> Point.add (gmul (Scalar.of_bigint v)) (qmul blinds.(j))) values in
      (values, blinds, commitments)
    in
    let prove (values, blinds, _) =
      Zkp.Range_proof.prove ~g_table:setup.Setup.g_table ~h_table:setup.Setup.q_table drbg (tr ()) ~gens ~g ~h:q
        ~bits ~values ~blinds
    in
    add (name ^ ".prove_s") (probe ~reps:2 stmt prove);
    add (name ^ ".verify_s")
      (probe ~reps:2
         (fun () ->
           let ((_, _, commitments) as s) = stmt () in
           (commitments, prove s))
         (fun (commitments, proof) -> Zkp.Range_proof.verify (tr ()) ~gens ~g ~h:q ~bits ~commitments proof))
  in
  range "zkp.range_sigma" ~bits:p.Params.b_ip_bits ~count:p.Params.k;
  range "zkp.range_mu" ~bits:p.Params.b_max_bits ~count:1;
  let nt = p.Params.k * p.Params.b_ip_bits in
  add "zkp.ipa.prove_s"
    (probe ~reps:2
       (fun () -> (Array.init nt (fun _ -> rand ()), Array.init nt (fun _ -> rand ())))
       (fun (a, b) ->
         Zkp.Ipa.prove (tr ()) ~g:(Array.sub gens.Zkp.Range_proof.gv 0 nt) ~h:(Array.sub gens.Zkp.Range_proof.hv 0 nt)
           ~u:gens.Zkp.Range_proof.u ~a ~b));
  let k = p.Params.k in
  add "zkp.sigma_wf.prove_s"
    (probe ~reps:3
       (fun () ->
         let hs = Array.init (k + 1) (fun _ -> gmul (rand ())) in
         let r = rand () and vs = Array.init (k + 1) (fun _ -> rand ()) and ss = Array.init k (fun _ -> rand ()) in
         let es = Array.mapi (fun t h -> Point.add (gmul vs.(t)) (Point.mul r h)) hs in
         let os = Array.init k (fun t -> Point.add (gmul vs.(t + 1)) (qmul ss.(t))) in
         (hs, gmul r, es, os, r, vs, ss))
       (fun (hs, z, es, os, r, vs, ss) ->
         Zkp.Sigma.Wf.prove ~g_table:setup.Setup.g_table ~q_table:setup.Setup.q_table drbg (tr ()) ~g ~q ~hs ~z ~es
           ~os ~r ~vs ~ss));
  add "zkp.sigma_square.prove_s"
    (probe ~reps:5
       (fun () ->
         let x = rand () and s = rand () and s' = rand () in
         (Point.add (gmul x) (qmul s), Point.add (gmul (Scalar.mul x x)) (qmul s'), x, s, s'))
       (fun (y1, y2, x, s, s') ->
         Zkp.Sigma.Square.prove ~g_table:setup.Setup.g_table ~q_table:setup.Setup.q_table drbg (tr ()) ~g ~q ~y1 ~y2
           ~x ~s ~s'));
  (* curve25519: MSMs at d points and at k·b_ip points, one fixed-base
     table build, and the dlog solves of the last round's d coordinates *)
  let msm name pts =
    add name (probe ~reps:3 (fun () -> Array.map (fun pt -> (rand (), pt)) pts) (fun terms -> Curve25519.Msm.msm ~jobs:1 terms))
  in
  msm "curve25519.msm_d_s" setup.Setup.w;
  msm "curve25519.msm_kb_s" (Array.sub gens.Zkp.Range_proof.gv 0 nt);
  add "curve25519.table_build_s" (probe ~reps:5 (fun () -> gmul (rand ())) Point.Table.make);
  let dlog = Curve25519.Dlog.create ~jobs:1 ~base:g ~max_abs:(Params.agg_max_abs p) () in
  let targets = Array.map (fun a -> Point.Table.mul_small setup.Setup.g_table a) aggregate in
  add "curve25519.dlog_solve_s"
    (probe ~reps:3 (fun () -> targets) (fun ts -> Curve25519.Dlog.solve_many ~jobs:1 dlog ts));
  (* core.Sampling: the shared matrix and the h vector the server derives
     inside prepare_check *)
  let matrix () =
    let seed = Sampling.seed ~s:(Prng.Drbg.bytes drbg 32) ~pks in
    Sampling.sample_matrix ~seed ~d:p.Params.d ~k ~m_factor:p.Params.m_factor
  in
  add "sampling.matrix_s" (probe ~reps:3 (fun () -> ()) matrix);
  add "sampling.compute_h_s" (probe ~reps:3 matrix (Sampling.compute_h setup));
  (* vsss at the workload's (share count, threshold) *)
  let xs, t =
    if w.Workload.crowd then (Array.init Workload.degree (fun i -> i + 1), (Workload.degree / 2) + 1)
    else (Array.init w.Workload.n (fun i -> i + 1), Params.shamir_t p)
  in
  add "vsss.share_s" (probe ~reps:9 (fun () -> rand ()) (fun secret -> Vsss.share_at drbg ~secret ~xs ~t ~g));
  add "vsss.verify_s"
    (probe ~reps:9
       (fun () -> Vsss.share_at drbg ~secret:(rand ()) ~xs ~t ~g)
       (fun (shares, check) -> Array.for_all (Vsss.verify ~g ~check) shares));
  let cohort = Array.init w.Workload.n (fun i -> i + 1) in
  let degree = if w.Workload.crowd then Workload.degree else w.Workload.n - 1 in
  add "topology.make_s"
    (probe ~reps:9 (fun () -> ()) (fun () -> Topology.make ~seed:"perfbench/probe" ~round:1 ~cohort ~degree));
  (* core.Membership: a key-rotation continuity proof check *)
  let rot_client = Client.create setup ~id:1 (Prng.Drbg.create_string "perfbench/probe/rotation") in
  add "membership.rotation_verify_s"
    (probe ~reps:9
       (fun () -> Client.rotation_proof rot_client)
       (fun rot -> Membership.verify_rotation rot ~pk_old:(Client.public_key rot_client)));
  let standalone =
    [
      ( "membership.epoch_s",
        probe ~reps:9
          (fun () -> Membership.create pks)
          (fun mem -> Membership.advance mem ~round:1 ~events:[] ~rotation_for:(fun ~id:_ ~gen:_ -> None)) );
      ( "wal.append_s",
        let path = Filename.concat dir (w.Workload.name ^ "-probe.wal") in
        if Sys.file_exists path then Sys.remove path;
        let log = Round_log.create ~fsync:true path in
        let v =
          probe ~reps:9
            (fun () -> ())
            (fun () ->
              Round_log.append log
                (Round_log.Frame { round = 1; stage = Netsim.Commit; sender = 1; seq = 0; frame = commit_frame }))
        in
        Round_log.close log;
        Sys.remove path;
        v );
      ( "transport.deliver_s",
        probe ~reps:5
          (fun () -> Risefl_transport.Loopback.create ~plan:Netsim.ideal ~seed:"perfbench/probe" ())
          (fun lb ->
            Risefl_transport.Loopback.begin_stage lb ~round:1 ~stage:Netsim.Commit;
            for i = 1 to w.Workload.n do
              Risefl_transport.Loopback.send lb ~sender:i commit_frame
            done;
            Risefl_transport.Loopback.deliver lb) );
    ]
  in
  (List.rev !out, standalone)
