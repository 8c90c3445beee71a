(* The traced run's readable breakdown: one table per workload run. *)

let table b ~workload ~seed ~round_s ~untraced_s =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.bprintf buf fmt in
  pf "traced run: workload %s, seed %d, %d measured round(s); values are per round (mean)\n\n" workload seed
    b.Trace.rounds;
  pf "%-16s %8s %12s %7s  %s\n" "layer" "calls" "self_s" "share" "counter deltas";
  List.iter
    (fun (l, _) ->
      let self, calls, counts = Trace.layer b l in
      let nonzero =
        List.filter_map
          (fun i -> if counts.(i) <> 0.0 then Some (Printf.sprintf "%s=%.0f" Trace.counter_names.(i) counts.(i)) else None)
          (List.init (Array.length counts) Fun.id)
      in
      pf "%-16s %8.1f %12.6f %6.1f%%  %s\n"
        (if l = "driver" then "unattributed" else l)
        calls self (100.0 *. self /. round_s) (String.concat " " nonzero))
    Trace.layers;
  pf "%-16s %8s %12.6f\n" "round wall" "" round_s;
  pf "%-16s %8s %12.6f\n" "untraced round" "" untraced_s;
  pf "%-16s %8s %12.6f  (traced minus untraced)\n\n" "trace overhead" "" (round_s -. untraced_s);
  pf "%-24s %8s %12s\n" "call" "calls" "self_s";
  Hashtbl.fold (fun name xs acc -> (name, Trace.name_s b name, Trace.per_round b (float_of_int (List.length xs))) :: acc)
    b.Trace.by_name []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  |> List.iter (fun (name, v, calls) -> pf "%-24s %8.1f %12.6f\n" name calls v);
  Buffer.contents buf
