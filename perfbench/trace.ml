(* Spans recorded from the benchmark's own code around each call into a
   layer, with the program's Telemetry counter deltas taken at the same
   boundaries. Spans stay in memory and are written when the run ends. *)

type span = {
  id : int;
  name : string;  (** the metric the call is booked under, e.g. "client.proof" *)
  layer : string;  (** the module the call enters, e.g. "core.Client" *)
  round : int;
  parent : int;  (** -1 for a round's root span *)
  t0 : float;
  t1 : float;
  deltas : int array;  (** counter deltas over the call, indexed like [counter_names] *)
}

let counter_names =
  [|
    "point.add";
    "point.double";
    "point.madd";
    "point.scalarmul";
    "msm.evals";
    "msm.points";
    "fe.invert_batch.elems";
    "dlog.probes";
    "sha256.blocks";
    "drbg.bytes";
    "wire.commit.bytes";
    "wire.flag.bytes";
    "wire.proof.bytes";
    "wire.agg.bytes";
    "wire.broadcast.bytes";
    "topo.recovered";
    "topo.excluded";
    "wal.appends";
    "wal.bytes";
    "wal.fsyncs";
    "transport.frames.in";
    "transport.bytes.out";
    "rel.retransmits";
    "net.dropped";
    "stream.evicted";
  |]

let counters = Array.map Telemetry.Counter.make counter_names
let read_counters () = Array.map Telemetry.Counter.value counters

let counter_index name =
  let rec go i = if counter_names.(i) = name then i else go (i + 1) in
  go 0

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let round = ref 0

(* Counters are read outside the timed interval, so their cost lands in
   the enclosing span's self time (the tracing overhead), never in the
   layer being measured. *)
let with_ ~layer name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let c0 = read_counters () in
  stack := id :: !stack;
  let t0 = Bench_util.now () in
  let finish () =
    let t1 = Bench_util.now () in
    stack := List.tl !stack;
    let c1 = read_counters () in
    let deltas = Array.mapi (fun i v -> v - c0.(i)) c1 in
    spans := { id; name; layer; round = !round; parent; t0; t1; deltas } :: !spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let dur s = s.t1 -. s.t0

(* The layers spans are booked under, in report order, each with the
   metric its per-round self time is reported as; "driver" is the
   round's root span, whose self time is the unattributed remainder
   (orchestration and copying between the timed calls). *)
let layers =
  [
    ("core.Client", "self.client_s");
    ("core.Server", "self.server_s");
    ("core.Serial", "self.serial_s");
    ("transport", "self.transport_s");
    ("core.Round_log", "self.wal_s");
    ("core.Membership", "self.membership_s");
    ("topology", "self.topology_s");
    ("trace", "self.trace_s");
    ("driver", "driver.unattributed_s");
  ]

exception Negative_remainder of string

(* Per-round totals over the measured rounds. A span's self time is its
   duration minus what its direct children cover; its own counter
   deltas likewise exclude its children's. *)
type breakdown = {
  rounds : int;
  by_name : (string, float list) Hashtbl.t;  (** self time of every call *)
  by_layer : (string, float * int * int array) Hashtbl.t;  (** self time, calls, own counter deltas *)
  walls : float list;  (** each round's root duration *)
  totals : int array;  (** counter deltas over whole rounds *)
}

let breakdown all ~rounds =
  let b =
    {
      rounds = List.length rounds;
      by_name = Hashtbl.create 31;
      by_layer = Hashtbl.create 17;
      walls = [];
      totals = Array.make (Array.length counter_names) 0;
    }
  in
  let walls = ref [] in
  List.iter
    (fun r ->
      let spans = List.filter (fun s -> s.round = r) all in
      let covered = Hashtbl.create 97 and child_deltas = Hashtbl.create 97 in
      List.iter
        (fun s ->
          if s.parent >= 0 then begin
            Hashtbl.replace covered s.parent (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent));
            let acc =
              match Hashtbl.find_opt child_deltas s.parent with
              | Some a -> a
              | None ->
                  let a = Array.make (Array.length counter_names) 0 in
                  Hashtbl.replace child_deltas s.parent a;
                  a
            in
            Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) s.deltas
          end)
        spans;
      List.iter
        (fun s ->
          let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
          if self < 0.0 then
            raise
              (Negative_remainder
                 (Printf.sprintf "round %d: %s has negative self time %g s (overlapping or double-counted spans)" r
                    s.name self));
          let own =
            match Hashtbl.find_opt child_deltas s.id with
            | None -> s.deltas
            | Some c -> Array.mapi (fun i v -> v - c.(i)) s.deltas
          in
          Hashtbl.replace b.by_name s.name (self :: Option.value ~default:[] (Hashtbl.find_opt b.by_name s.name));
          let t, n, cnt =
            Option.value ~default:(0.0, 0, Array.make (Array.length counter_names) 0) (Hashtbl.find_opt b.by_layer s.layer)
          in
          Hashtbl.replace b.by_layer s.layer (t +. self, n + 1, Array.mapi (fun i v -> v + own.(i)) cnt);
          if s.parent < 0 then begin
            walls := dur s :: !walls;
            Array.iteri (fun i v -> b.totals.(i) <- b.totals.(i) + v) s.deltas
          end)
        spans)
    rounds;
  { b with walls = !walls }

(* per-round means *)
let per_round b x = x /. float_of_int (max 1 b.rounds)
let name_s b name = per_round b (List.fold_left ( +. ) 0.0 (Option.value ~default:[] (Hashtbl.find_opt b.by_name name)))
let total b name = per_round b (float_of_int b.totals.(counter_index name))

let layer b l =
  match Hashtbl.find_opt b.by_layer l with
  | Some (t, n, cnt) -> (per_round b t, per_round b (float_of_int n), Array.map (fun v -> per_round b (float_of_int v)) cnt)
  | None -> (0.0, 0.0, Array.make (Array.length counter_names) 0.0)

let layer_self b l =
  let t, _, _ = layer b l in
  t

let to_json all =
  let open Bench_util in
  Arr
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", Str s.name);
             ("layer", Str s.layer);
             ("round", Int s.round);
             ("parent", Int s.parent);
             ("start_s", Float s.t0);
             ("end_s", Float s.t1);
             ( "counters",
               Obj
                 (List.filter_map
                    (fun i -> if s.deltas.(i) <> 0 then Some (counter_names.(i), Int s.deltas.(i)) else None)
                    (List.init (Array.length counter_names) Fun.id)) );
           ])
       all)
