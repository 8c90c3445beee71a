(* Attack audit: exercises every malicious behaviour of the threat model
   (§3.2) against the full cryptographic protocol and reports how each is
   neutralized, including the relaxed-SAVI grey zone where the predicted
   pass rate F(c) is compared against observed outcomes.

     dune exec examples/attack_audit.exe *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver

let params = Params.make ~n_clients:5 ~max_malicious:1 ~d:24 ~k:8 ~m_factor:64.0 ~bound_b:600.0 ()
let setup = Setup.create ~label:"attack-audit" params

let base_updates () = Array.init 5 (fun i -> Array.init 24 (fun l -> (((i * 7) + (l * 11)) mod 60) - 30))

let run name behaviours updates =
  let stats =
    Driver.completed_exn
      (Driver.run_round_outcome (Driver.create_session setup ~seed:("audit-" ^ name)) ~updates
         ~behaviours ~round:1)
  in
  Printf.printf "%-28s flagged=[%s]  aggregated=%b\n" name
    (String.concat ";" (List.map string_of_int stats.Driver.flagged))
    (stats.Driver.aggregate <> None);
  stats

let () =
  print_endline "=== RiseFL attack audit (n=5, m=1, d=24, k=8) ===\n";

  Printf.printf "%-28s %s\n" "scenario" "outcome";
  ignore (run "all honest" (Driver.honest_all 5) (base_updates ()));

  (* scaling attack, far beyond the bound *)
  let updates = base_updates () in
  let norm = Encoding.Fixed_point.l2_norm_encoded updates.(2) in
  let c = 60.0 in
  let factor = int_of_float (c *. params.Params.bound_b /. norm) in
  updates.(2) <- Array.map (fun x -> factor * x) updates.(2);
  let behaviours = Driver.honest_all 5 in
  behaviours.(2) <- Driver.Oversized c;
  ignore (run "scaling attack (60x bound)" behaviours updates);

  (* sign-flip attack = scaling with negated sign *)
  let updates = base_updates () in
  updates.(1) <- Array.map (fun x -> -factor * x) updates.(1);
  let behaviours = Driver.honest_all 5 in
  behaviours.(1) <- Driver.Oversized c;
  ignore (run "sign-flip attack (60x)" behaviours updates);

  (* malformed shares *)
  let behaviours = Driver.honest_all 5 in
  behaviours.(0) <- Driver.Bad_share_to [ 2; 3; 4; 5 ];
  ignore (run "garbage shares to all" behaviours (base_updates ()));

  let behaviours = Driver.honest_all 5 in
  behaviours.(4) <- Driver.Bad_share_to [ 2 ];
  ignore (run "garbage share to one" behaviours (base_updates ()));

  (* framing an honest client *)
  let behaviours = Driver.honest_all 5 in
  behaviours.(3) <- Driver.False_flags [ 1 ];
  ignore (run "false accusation" behaviours (base_updates ()));

  (* dropout *)
  let behaviours = Driver.honest_all 5 in
  behaviours.(2) <- Driver.Drop_out;
  ignore (run "client drops out" behaviours (base_updates ()));

  (* --- the relaxed-SAVI grey zone: moderate oversizing --- *)
  print_endline "\n=== grey zone: pass rate of a c.B-norm update over 8 trials vs predicted F(c) ===";
  let pr = Params.passrate_params params in
  List.iter
    (fun c ->
      let predicted = Stats.Passrate.f pr c in
      let passes = ref 0 in
      for trial = 1 to 8 do
        let updates = base_updates () in
        let norm = Encoding.Fixed_point.l2_norm_encoded updates.(2) in
        let factor = c *. params.Params.bound_b /. norm in
        updates.(2) <- Array.map (fun x -> int_of_float (factor *. float_of_int x)) updates.(2);
        let behaviours = Driver.honest_all 5 in
        behaviours.(2) <- Driver.Oversized c;
        let stats =
          Driver.completed_exn
            (Driver.run_round_outcome
               (Driver.create_session setup ~seed:(Printf.sprintf "grey-%f-%d" c trial))
               ~updates ~behaviours ~round:1)
        in
        if not (List.mem 3 stats.Driver.flagged) then incr passes
      done;
      Printf.printf "c = %-5.2f  predicted F(c) = %-10.3g observed pass rate = %d/8\n" c predicted
        !passes)
    [ 1.5; 4.0; 10.0 ]
