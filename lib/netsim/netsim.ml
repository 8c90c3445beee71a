type stage = Commit | Flag | Proof | Agg

let stage_to_string = function
  | Commit -> "commit"
  | Flag -> "flag"
  | Proof -> "proof"
  | Agg -> "agg"

let stage_of_string = function
  | "commit" -> Some Commit
  | "flag" -> Some Flag
  | "proof" -> Some Proof
  | "agg" -> Some Agg
  | _ -> None

let stage_index = function Commit -> 0 | Flag -> 1 | Proof -> 2 | Agg -> 3

let stage_of_index = function
  | 0 -> Some Commit
  | 1 -> Some Flag
  | 2 -> Some Proof
  | 3 -> Some Agg
  | _ -> None

type fault =
  | Drop
  | Delay of int
  | Duplicate
  | Reorder
  | Truncate_at of int
  | Flip_bytes of int
  | Replay_previous

type plan = {
  p_drop : float;
  p_delay : float;
  max_delay : int;
  p_duplicate : float;
  p_reorder : float;
  p_truncate : float;
  p_flip : float;
  p_replay : float;
}

let ideal =
  {
    p_drop = 0.0;
    p_delay = 0.0;
    max_delay = 3;
    p_duplicate = 0.0;
    p_reorder = 0.0;
    p_truncate = 0.0;
    p_flip = 0.0;
    p_replay = 0.0;
  }

let uniform ?(max_delay = 3) p =
  {
    p_drop = p;
    p_delay = p;
    max_delay;
    p_duplicate = p;
    p_reorder = p;
    p_truncate = p;
    p_flip = p;
    p_replay = p;
  }

let plan_of_string s =
  let parse_float v = match float_of_string_opt v with Some f -> Ok f | None -> Error ("bad number: " ^ v) in
  let rec go plan = function
    | [] -> Ok plan
    | kv :: rest -> (
        match String.index_opt kv '=' with
        | None -> Error ("expected key=value, got: " ^ kv)
        | Some eq -> (
            let key = String.sub kv 0 eq in
            let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
            let simple set = Result.bind (parse_float v) (fun f -> go (set f) rest) in
            match key with
            | "drop" -> simple (fun f -> { plan with p_drop = f })
            | "dup" | "duplicate" -> simple (fun f -> { plan with p_duplicate = f })
            | "reorder" -> simple (fun f -> { plan with p_reorder = f })
            | "trunc" | "truncate" -> simple (fun f -> { plan with p_truncate = f })
            | "flip" -> simple (fun f -> { plan with p_flip = f })
            | "replay" -> simple (fun f -> { plan with p_replay = f })
            | "delay" -> (
                match String.index_opt v ':' with
                | None -> simple (fun f -> { plan with p_delay = f })
                | Some c -> (
                    let pv = String.sub v 0 c
                    and mv = String.sub v (c + 1) (String.length v - c - 1) in
                    match (float_of_string_opt pv, int_of_string_opt mv) with
                    | Some f, Some m when m >= 1 ->
                        go { plan with p_delay = f; max_delay = m } rest
                    | _ -> Error ("bad delay spec: " ^ v)))
            | _ -> Error ("unknown fault key: " ^ key)))
  in
  let parts = String.split_on_char ',' (String.trim s) |> List.map String.trim in
  let parts = List.filter (fun p -> p <> "") parts in
  Result.bind (go ideal parts) (fun plan ->
      let probs =
        [ plan.p_drop; plan.p_delay; plan.p_duplicate; plan.p_reorder; plan.p_truncate; plan.p_flip; plan.p_replay ]
      in
      if List.exists (fun p -> p < 0.0 || p > 1.0) probs then Error "probabilities must be in [0, 1]"
      else Ok plan)

let plan_to_string p =
  Printf.sprintf "drop=%g,delay=%g:%d,dup=%g,reorder=%g,trunc=%g,flip=%g,replay=%g" p.p_drop
    p.p_delay p.max_delay p.p_duplicate p.p_reorder p.p_truncate p.p_flip p.p_replay

type counters = {
  sent : int;
  delivered : int;
  dropped : int;
  late : int;
  mutated : int;
  duplicated : int;
  reordered : int;
  replayed : int;
  retransmitted : int;
  recovered : int;
}

(* telemetry mirrors of the per-instance struct counters, so transport
   fault stats land in the same snapshot as the crypto op counts *)
let t_sent = Telemetry.Counter.make "net.sent"
let t_delivered = Telemetry.Counter.make "net.delivered"
let t_dropped = Telemetry.Counter.make "net.dropped"
let t_late = Telemetry.Counter.make "net.late"
let t_mutated = Telemetry.Counter.make "net.mutated"
let t_duplicated = Telemetry.Counter.make "net.duplicated"
let t_reordered = Telemetry.Counter.make "net.reordered"
let t_replayed = Telemetry.Counter.make "net.replayed"
let t_retransmitted = Telemetry.Counter.make "net.retransmitted"
let t_recovered = Telemetry.Counter.make "net.recovered"

type queued = { tick : int; seq : int; q_sender : int; frame : Bytes.t }

type t = {
  root : Prng.Drbg.t;
  plan : plan;
  link_plans : (int, plan) Hashtbl.t;
  script : (int * stage * int, fault list) Hashtbl.t;
  default_deadline : int;
  mutable round : int;
  mutable stage : stage;
  mutable queue : queued list;
  mutable next_seq : int;
  (* most recent frame sent per (stage, sender), with its round — the
     replay fault re-sends it when it predates the current round *)
  history : (stage * int, int * Bytes.t) Hashtbl.t;
  mutable c_sent : int;
  mutable c_delivered : int;
  mutable c_dropped : int;
  mutable c_late : int;
  mutable c_mutated : int;
  mutable c_duplicated : int;
  mutable c_reordered : int;
  mutable c_replayed : int;
  mutable c_retransmitted : int;
  mutable c_recovered : int;
}

let create ?(plan = ideal) ?(link_plans = []) ?(script = []) ?(deadline = 4) ~seed () =
  let lp = Hashtbl.create 7 in
  List.iter (fun (i, p) -> Hashtbl.replace lp i p) link_plans;
  let sc = Hashtbl.create 7 in
  List.iter (fun (k, fs) -> Hashtbl.replace sc k fs) script;
  {
    root = Prng.Drbg.create_string ("netsim/" ^ seed);
    plan;
    link_plans = lp;
    script = sc;
    default_deadline = max 0 deadline;
    round = 0;
    stage = Commit;
    queue = [];
    next_seq = 0;
    history = Hashtbl.create 31;
    c_sent = 0;
    c_delivered = 0;
    c_dropped = 0;
    c_late = 0;
    c_mutated = 0;
    c_duplicated = 0;
    c_reordered = 0;
    c_replayed = 0;
    c_retransmitted = 0;
    c_recovered = 0;
  }

let deadline t = t.default_deadline

let counters t =
  {
    sent = t.c_sent;
    delivered = t.c_delivered;
    dropped = t.c_dropped;
    late = t.c_late;
    mutated = t.c_mutated;
    duplicated = t.c_duplicated;
    reordered = t.c_reordered;
    replayed = t.c_replayed;
    retransmitted = t.c_retransmitted;
    recovered = t.c_recovered;
  }

let begin_stage t ~round ~stage =
  (* frames still queued belonged to the previous exchange: late *)
  t.c_late <- t.c_late + List.length t.queue;
  Telemetry.Counter.add t_late (List.length t.queue);
  t.queue <- [];
  t.next_seq <- 0;
  t.round <- round;
  t.stage <- stage

let plan_for t sender =
  match Hashtbl.find_opt t.link_plans sender with Some p -> p | None -> t.plan

(* Independent coin per fault class, in a fixed draw order so the schedule
   depends only on (seed, round, stage, sender). *)
let sample_faults drbg plan frame_len =
  let coin p = p > 0.0 && Prng.Drbg.float drbg < p in
  if coin plan.p_drop then [ Drop ]
  else begin
    let fs = ref [] in
    if coin plan.p_replay then fs := Replay_previous :: !fs;
    if coin plan.p_truncate then
      fs := Truncate_at (Prng.Drbg.uniform_int drbg (max 1 frame_len)) :: !fs;
    if coin plan.p_flip then fs := Flip_bytes (1 + Prng.Drbg.uniform_int drbg 8) :: !fs;
    if coin plan.p_delay then
      fs := Delay (1 + Prng.Drbg.uniform_int drbg (max 1 plan.max_delay)) :: !fs;
    if coin plan.p_duplicate then fs := Duplicate :: !fs;
    if coin plan.p_reorder then fs := Reorder :: !fs;
    List.rev !fs
  end

let send ?(attempt = 0) t ~sender frame =
  t.c_sent <- t.c_sent + 1;
  Telemetry.Counter.incr t_sent;
  if attempt > 0 then begin
    t.c_retransmitted <- t.c_retransmitted + 1;
    Telemetry.Counter.incr t_retransmitted
  end;
  let key = (t.stage, sender) in
  (* attempt 0 keeps the historical label so every existing seed's fault
     schedule is unchanged; retransmissions re-roll their faults under an
     attempt-suffixed fork *)
  let drbg =
    Prng.Drbg.fork t.root
      (if attempt = 0 then
         Printf.sprintf "fault/r%d/%s/c%d" t.round (stage_to_string t.stage) sender
       else
         Printf.sprintf "fault/r%d/%s/c%d/t%d" t.round (stage_to_string t.stage) sender attempt)
  in
  let faults =
    match Hashtbl.find_opt t.script (t.round, t.stage, sender) with
    | Some fs -> fs
    | None -> sample_faults drbg (plan_for t sender) (Bytes.length frame)
  in
  let previous = Hashtbl.find_opt t.history key in
  Hashtbl.replace t.history key (t.round, frame);
  if List.mem Drop faults then begin
    t.c_dropped <- t.c_dropped + 1;
    Telemetry.Counter.incr t_dropped
  end
  else begin
    let payload = ref frame in
    let tick = ref 0 in
    let copies = ref 1 in
    let mutated = ref false in
    let reordered = ref false in
    List.iter
      (fun f ->
        match f with
        | Drop -> ()
        | Replay_previous -> (
            match previous with
            | Some (r, old) when r < t.round ->
                payload := old;
                t.c_replayed <- t.c_replayed + 1;
                Telemetry.Counter.incr t_replayed;
                mutated := true
            | _ -> ())
        | Truncate_at off ->
            let off = max 0 (min off (Bytes.length !payload)) in
            if off < Bytes.length !payload then begin
              payload := Bytes.sub !payload 0 off;
              mutated := true
            end
        | Flip_bytes k ->
            if Bytes.length !payload > 0 then begin
              let b = Bytes.copy !payload in
              for _ = 1 to max 1 k do
                let pos = Prng.Drbg.uniform_int drbg (Bytes.length b) in
                let mask = 1 + Prng.Drbg.uniform_int drbg 255 in
                Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask))
              done;
              payload := b;
              mutated := true
            end
        | Delay dt -> tick := !tick + max 0 dt
        | Duplicate ->
            incr copies;
            t.c_duplicated <- t.c_duplicated + 1;
            Telemetry.Counter.incr t_duplicated
        | Reorder ->
            reordered := true;
            t.c_reordered <- t.c_reordered + 1;
            Telemetry.Counter.incr t_reordered)
      faults;
    if !mutated then begin
      t.c_mutated <- t.c_mutated + 1;
      Telemetry.Counter.incr t_mutated
    end;
    let base_seq =
      if !reordered then t.next_seq + 1000 + Prng.Drbg.uniform_int drbg 1000 else t.next_seq
    in
    t.next_seq <- t.next_seq + 1;
    for c = 0 to !copies - 1 do
      t.queue <-
        { tick = !tick + c; seq = base_seq + (c * 10000); q_sender = sender; frame = !payload }
        :: t.queue
    done
  end

(* a reliability layer above us acked this frame after >= 1 retransmit:
   the loss was transient, not a dropout *)
let note_recovered t =
  t.c_recovered <- t.c_recovered + 1;
  Telemetry.Counter.incr t_recovered

let deliver ?deadline:dl t =
  let dl = match dl with Some d -> d | None -> t.default_deadline in
  let on_time, late = List.partition (fun q -> q.tick <= dl) t.queue in
  t.queue <- [];
  t.c_late <- t.c_late + List.length late;
  Telemetry.Counter.add t_late (List.length late);
  let sorted =
    List.sort (fun a b -> if a.tick <> b.tick then compare a.tick b.tick else compare a.seq b.seq) on_time
  in
  t.c_delivered <- t.c_delivered + List.length sorted;
  Telemetry.Counter.add t_delivered (List.length sorted);
  List.map (fun q -> (q.q_sender, q.frame)) sorted

(* ------------------------------------------------------------------ *)
(* The shared transport signature                                      *)
(* ------------------------------------------------------------------ *)

module Transport_intf = struct
  type endpoint = {
    ep_begin_stage : round:int -> stage:stage -> unit;
    ep_send : attempt:int -> sender:int -> Bytes.t -> unit;
    ep_deliver : deadline:int option -> (int * Bytes.t) list;
    ep_note_recovered : unit -> unit;
    ep_deadline : unit -> int;
    ep_counters : unit -> counters;
  }

  module type S = sig
    type t

    val create :
      ?plan:plan ->
      ?link_plans:(int * plan) list ->
      ?script:((int * stage * int) * fault list) list ->
      ?deadline:int ->
      seed:string ->
      unit ->
      t

    val deadline : t -> int
    val begin_stage : t -> round:int -> stage:stage -> unit
    val send : ?attempt:int -> t -> sender:int -> Bytes.t -> unit
    val note_recovered : t -> unit
    val deliver : ?deadline:int -> t -> (int * Bytes.t) list
    val counters : t -> counters
    val endpoint : t -> endpoint
  end
end

let endpoint (net : t) : Transport_intf.endpoint =
  {
    Transport_intf.ep_begin_stage = (fun ~round ~stage -> begin_stage net ~round ~stage);
    ep_send = (fun ~attempt ~sender frame -> send ~attempt net ~sender frame);
    ep_deliver =
      (fun ~deadline ->
        match deadline with Some d -> deliver ~deadline:d net | None -> deliver net);
    ep_note_recovered = (fun () -> note_recovered net);
    ep_deadline = (fun () -> deadline net);
    ep_counters = (fun () -> counters net);
  }
