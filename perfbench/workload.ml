(* The benchmark's workloads: one fixed configuration each, every input
   generated from the workload seed, and the plaintext oracle each round
   is checked against. *)

open Risefl_core
module Topology = Risefl_topology.Topology

type t = {
  name : string;
  n : int;
  m : int;
  d : int;
  k : int;
  b_max : int;  (** bits of the μ range proof (Params.b_max_bits) *)
  crowd : bool;
      (** multi-round session machinery: seeded churn, k-regular sharing,
          streamed verification, WAL with fsync, socket loopback under
          ARQ, and scripted faulty clients *)
}

(* Sizes keep a wide-model round to ~6-7 s and a crowd round to ~3.5 s
   at jobs=1, so a run holds 7-8 and ~14 rounds and its median rides out
   the host's slow phases. crowd's rounds differ in cohort, so it needs
   the more of them: its proofs are narrowed to k=2 and a 64-bit μ range
   proof (the least Params allows at k=2 with 32-bit projections). *)
let all =
  [
    (* per-coordinate work: d Pedersen commitments, k×d sampling, d-point
       MSMs, d dlog solves *)
    { name = "wide-model"; n = 3; m = 1; d = 1024; k = 4; b_max = 128; crowd = false };
    (* per-client session machinery and the server's rejection and
       recovery paths; client proving (the range-proof floor) is most of
       its round *)
    { name = "crowd"; n = 7; m = 3; d = 32; k = 2; b_max = 64; crowd = true };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let l2_bound = 800.0

let params w =
  Params.make ~n_clients:w.n ~max_malicious:w.m ~d:w.d ~k:w.k ~b_max_bits:w.b_max ~m_factor:128.0
    ~bound_b:l2_bound ()

let session_seed w ~seed = Printf.sprintf "perfbench/%s/%d" w.name seed
let setup_label w ~seed = "perfbench-setup/" ^ session_seed w ~seed

(* round r's encoded updates: coordinates uniform in [-15, 15], far
   inside the L2 bound at every workload's d *)
let updates w ~seed ~round =
  let drbg = Prng.Drbg.create_string (Printf.sprintf "%s/updates/r%d" (session_seed w ~seed) round) in
  Array.init w.n (fun _ -> Array.init w.d (fun _ -> Prng.Drbg.uniform_int drbg 31 - 15))

(* --- crowd session knobs --- *)

let degree = 4
let topology w = if w.crowd then Topology.Kregular degree else Topology.Full

(* Rolling churn: from round 2 on, the previous round's leaver rejoins
   and the next client in id order leaves, so membership changes every
   round while the cohort stays at n-1 (one round in n is full), above
   degree + 1 so the requested degree is never clamped; key rotations
   are seeded. A steady cohort size keeps a round's work independent of
   the seed's churn draw, which a run's few rounds could not average
   out. *)
let churn_spec w = { Membership.p_leave = 1.0; p_rejoin = 1.0; p_rotate = 0.15; min_cohort = w.n - 1 }

(* light loss, duplication and reordering; six ARQ attempts make a
   frame lost for good a ~1e-8 event *)
let fault_plan = { Netsim.ideal with Netsim.p_drop = 0.05; p_duplicate = 0.03; p_reorder = 0.05 }
let max_attempts = 6
let stream_cfg w = if w.crowd then Some (Server.stream_cfg ~shards:2 ~batch:3 ()) else None

(* rounds a session can run; far more than fit in one run *)
let max_rounds = 200

(* Scripted clients, chosen from the seed: [flagger] flags m+1 peers
   (self-incriminating under rule 1a), [dealer] corrupts its sealed
   shares to two peers (at most m flaggers, so rule 2 clears it), and
   [silent] goes quiet at aggregation (its blind is recovered from its
   neighbourhood). *)
type cast = { flagger : int; dealer : int; silent : int }

let cast w ~seed =
  let drbg = Prng.Drbg.create_string (session_seed w ~seed ^ "/cast") in
  let ids = Array.init w.n (fun i -> i + 1) in
  for i = w.n - 1 downto 1 do
    let j = Prng.Drbg.uniform_int drbg (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  { flagger = ids.(0); dealer = ids.(1); silent = ids.(2) }

let behaviours w ~seed =
  let b = Driver.honest_all w.n in
  if w.crowd then begin
    let c = cast w ~seed in
    let others self = List.filter (fun j -> j <> self) (List.init w.n (fun i -> i + 1)) in
    let take k xs = List.filteri (fun i _ -> i < k) xs in
    b.(c.flagger - 1) <- Driver.False_flags (take (w.m + 1) (others c.flagger));
    b.(c.dealer - 1) <- Driver.Bad_share_to (take 2 (List.rev (others c.dealer)));
    b.(c.silent - 1) <- Driver.Agg_silent
  end;
  b

(* --- the oracle ---

   C* and the included set follow from the scripted behaviours and the
   paper's flag rules alone: a client that flags more than m peers is
   convicted (rule 1a) and stays banned for the session; a dealer
   flagged by at most m peers reveals valid shares and stays (rule 2);
   an aggregation-silent client is included iff at least the
   neighbourhood threshold of its graph neighbours are alive to
   recover its blind. The aggregate is the plaintext sum of the included
   clients' generated updates. *)
type expect = { cstar : int list; included : int list; aggregate : int array }

let predict w ~behaviours ~updates ~cohort ~topo ~banned =
  let in_cohort i = Array.mem i cohort in
  let convicted =
    List.filter
      (fun i ->
        in_cohort i
        && match behaviours.(i - 1) with Driver.False_flags l -> List.length l > w.m | _ -> false)
      (List.init w.n (fun i -> i + 1))
  in
  let cstar = List.sort_uniq compare (banned @ convicted) in
  let honest = List.filter (fun i -> not (List.mem i cstar)) (Array.to_list cohort) in
  let silent i = behaviours.(i - 1) = Driver.Agg_silent in
  let alive = List.filter (fun i -> not (silent i)) honest in
  let recovered i =
    match topo with
    | None -> true
    | Some tp ->
        let live = Array.to_list (Topology.neighbors tp i) |> List.filter (fun j -> List.mem j alive) in
        List.length live >= Topology.threshold tp
  in
  let included = List.filter (fun i -> (not (silent i)) || recovered i) honest in
  let aggregate = Array.make w.d 0 in
  List.iter (fun i -> Array.iteri (fun l x -> aggregate.(l) <- aggregate.(l) + x) updates.(i - 1)) included;
  { cstar; included; aggregate }

(* a round's verdict against the oracle: None when it matches *)
let check expect ~aggregate ~cstar =
  if cstar <> expect.cstar then
    Some
      (Printf.sprintf "C* [%s] <> predicted [%s]"
         (String.concat ";" (List.map string_of_int cstar))
         (String.concat ";" (List.map string_of_int expect.cstar)))
  else
    match aggregate with
    | None -> Some "no aggregate"
    | Some a when a <> expect.aggregate -> Some "aggregate differs from the plaintext sum"
    | Some _ -> None
