(* Properties of the parallel runtime and the hot paths threaded through
   it: every combinator, the chunked Pippenger MSM, vector commitments
   and full-protocol verification must produce results identical to the
   sequential computation for every job count (the determinism guarantee
   of lib/parallel). Also covers the Bigint.to_digits window-digit
   extraction that the MSM precompute and Point.mul now share. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm
module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver

let jobs_ladder = [ 1; 2; 4 ]

let drbg = Prng.Drbg.create_string "test-parallel"

(* --- combinators --- *)

let test_parallel_init () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let got = Parallel.parallel_init ~jobs n (fun i -> (i * i) - (3 * i)) in
          let want = Array.init n (fun i -> (i * i) - (3 * i)) in
          Alcotest.(check (array int))
            (Printf.sprintf "init n=%d jobs=%d" n jobs)
            want got)
        [ 0; 1; 2; 7; 64; 1000 ])
    jobs_ladder

let test_parallel_map_mapi () =
  let xs = Array.init 513 (fun i -> i - 256) in
  List.iter
    (fun jobs ->
      let got = Parallel.parallel_map ~jobs (fun x -> x * 2) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "map jobs=%d" jobs)
        (Array.map (fun x -> x * 2) xs)
        got;
      let got = Parallel.parallel_mapi ~jobs (fun i x -> i + x) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "mapi jobs=%d" jobs)
        (Array.mapi (fun i x -> i + x) xs)
        got)
    jobs_ladder

let test_parallel_for_covers_range () =
  List.iter
    (fun jobs ->
      let n = 777 in
      let hits = Array.make n 0 in
      Parallel.parallel_for ~jobs ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check (array int))
        (Printf.sprintf "each index once, jobs=%d" jobs)
        (Array.make n 1) hits)
    jobs_ladder

let test_parallel_reduce () =
  let xs = Array.init 1001 (fun i -> i) in
  let want = Array.fold_left (fun acc x -> acc + (x * x)) 0 xs in
  List.iter
    (fun jobs ->
      let got =
        Parallel.parallel_reduce ~jobs ~map:(fun x -> x * x) ~combine:( + ) ~init:0 xs
      in
      Alcotest.(check int) (Printf.sprintf "sum of squares, jobs=%d" jobs) want got)
    jobs_ladder;
  Alcotest.(check int) "reduce of empty = init" 42
    (Parallel.parallel_reduce ~jobs:4 ~map:(fun x -> x) ~combine:( + ) ~init:42 [||])

let test_map_chunks_partition () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let ranges = Parallel.map_chunks ~jobs ~n (fun lo hi -> (lo, hi)) in
          (* ranges must tile [0, n) exactly, in ascending order *)
          let pos = ref 0 in
          Array.iter
            (fun (lo, hi) ->
              Alcotest.(check int) "contiguous" !pos lo;
              Alcotest.(check bool) "non-empty" true (hi > lo);
              pos := hi)
            ranges;
          Alcotest.(check int) (Printf.sprintf "covers n=%d jobs=%d" n jobs) n !pos)
        [ 1; 2; 3; 15; 16; 17; 1000 ])
    jobs_ladder;
  Alcotest.(check int) "n=0 gives no chunks" 0
    (Array.length (Parallel.map_chunks ~jobs:4 ~n:0 (fun lo hi -> (lo, hi))))

exception Boom

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker exception surfaces, jobs=%d" jobs)
        Boom
        (fun () ->
          ignore (Parallel.parallel_init ~jobs 64 (fun i -> if i = 37 then raise Boom else i)));
      (* the pool must still be usable afterwards *)
      let got = Parallel.parallel_init ~jobs 64 (fun i -> i) in
      Alcotest.(check (array int)) "pool survives exception" (Array.init 64 (fun i -> i)) got)
    jobs_ladder

let test_tree_combine () =
  Alcotest.check_raises "empty" (Invalid_argument "Parallel.tree_combine: empty")
    (fun () -> ignore (Parallel.tree_combine ( + ) [||]));
  for n = 1 to 33 do
    let xs = Array.init n (fun i -> [ i ]) in
    let got = Parallel.tree_combine ( @ ) xs in
    (* pairwise merging in fixed order must preserve element order *)
    Alcotest.(check (list int)) (Printf.sprintf "order kept n=%d" n)
      (List.init n (fun i -> i))
      got
  done

let test_nested_regions_inline () =
  (* a parallel region started from inside another must not deadlock *)
  let got =
    Parallel.parallel_init ~jobs:4 8 (fun i ->
        Array.fold_left ( + ) 0 (Parallel.parallel_init ~jobs:4 16 (fun j -> i + j)))
  in
  let want = Array.init 8 (fun i -> (16 * i) + 120) in
  Alcotest.(check (array int)) "nested result" want got

(* --- Bigint.to_digits vs the bit-by-bit reference --- *)

let digits_ref ~bits ~count x =
  Array.init count (fun w ->
      let v = ref 0 in
      for b = bits - 1 downto 0 do
        v := (!v lsl 1) lor if Bigint.testbit x ((w * bits) + b) then 1 else 0
      done;
      !v)

let test_to_digits_matches_testbit () =
  let cases =
    [ Bigint.zero; Bigint.one; Bigint.of_int max_int ]
    @ List.init 20 (fun i ->
          Bigint.of_bytes_le (Prng.Drbg.bytes drbg ((i mod 5) + (4 * i) + 1)))
  in
  List.iter
    (fun x ->
      List.iter
        (fun bits ->
          let count = (Bigint.bit_length x / bits) + 2 in
          Alcotest.(check (array int))
            (Printf.sprintf "bits=%d %s" bits (Bigint.to_string x))
            (digits_ref ~bits ~count x)
            (Bigint.to_digits ~bits ~count x))
        [ 1; 2; 4; 5; 13; 26; 29; 30 ])
    cases;
  (* count past the magnitude yields zero digits *)
  let ds = Bigint.to_digits ~bits:4 ~count:200 (Bigint.of_int 0xABC) in
  Alcotest.(check (array int)) "high digits zero"
    (Array.append [| 0xC; 0xB; 0xA |] (Array.make 197 0))
    ds

(* --- MSM vs naive scalar-mul sum --- *)

let naive_msm pairs =
  Array.fold_left (fun acc (s, p) -> Point.add acc (Point.mul s p)) Point.identity pairs

let random_point () = Point.mul (Scalar.random drbg) Point.base

let test_msm_matches_naive () =
  List.iter
    (fun n ->
      let pairs = Array.init n (fun _ -> (Scalar.random drbg, random_point ())) in
      let want = naive_msm pairs in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "msm n=%d jobs=%d" n jobs)
            true
            (Point.equal want (Msm.msm ~jobs pairs)))
        jobs_ladder)
    [ 0; 1; 2; 3; 17; 100 ]

(* Just below and above two chunks' worth of points: the chunk count, and
   with it each chunk's window, then depends on the job count, and the
   result must not *)
let test_msm_chunk_boundary () =
  let c = Msm.seq_cutoff in
  let c_evals = Telemetry.Counter.make "msm.evals" and c_points = Telemetry.Counter.make "msm.points" in
  let was = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was then Telemetry.disable ()) @@ fun () ->
  List.iter
    (fun n ->
      let pts = Array.init n (fun i -> if i mod 7 = 3 then Point.base else random_point ()) in
      let pairs = Array.map (fun p -> (Scalar.random drbg, p)) pts in
      let small = Array.map (fun p -> (Prng.Drbg.uniform_int drbg (1 lsl 31) - (1 lsl 30), p)) pts in
      let want = Msm.msm ~jobs:1 pairs and want_small = Msm.msm_small ~jobs:1 small in
      List.iter
        (fun jobs ->
          let e0 = Telemetry.Counter.value c_evals and p0 = Telemetry.Counter.value c_points in
          Alcotest.(check bool) (Printf.sprintf "msm n=%d jobs=%d" n jobs) true (Point.equal want (Msm.msm ~jobs pairs));
          Alcotest.(check bool)
            (Printf.sprintf "msm_small n=%d jobs=%d" n jobs)
            true
            (Point.equal want_small (Msm.msm_small ~jobs small));
          Alcotest.(check int) "evals" (e0 + 2) (Telemetry.Counter.value c_evals);
          Alcotest.(check int) "points" (p0 + (2 * n)) (Telemetry.Counter.value c_points))
        jobs_ladder)
    [ (2 * c) - 1; (2 * c) + 1 ]

let test_msm_edge_cases () =
  List.iter
    (fun jobs ->
      Alcotest.(check bool) "0 points -> identity" true
        (Point.equal Point.identity (Msm.msm ~jobs [||]));
      Alcotest.(check bool) "0 points (small) -> identity" true
        (Point.equal Point.identity (Msm.msm_small ~jobs [||]));
      let zeros = Array.init 40 (fun _ -> (Scalar.zero, random_point ())) in
      Alcotest.(check bool) "all-zero scalars -> identity" true
        (Point.equal Point.identity (Msm.msm ~jobs zeros));
      let zeros_small = Array.init 40 (fun _ -> (0, random_point ())) in
      Alcotest.(check bool) "all-zero ints -> identity" true
        (Point.equal Point.identity (Msm.msm_small ~jobs zeros_small)))
    jobs_ladder

let test_msm_small_signed () =
  (* negative exponents: e·P with e < 0 must equal (-e)·(-P) *)
  let exps = [| -1; 1; -1048575; 1048575; -77; 0; 5; -2; 123456; -999983 |] in
  let pairs = Array.map (fun e -> (e, random_point ())) exps in
  let want =
    Array.fold_left
      (fun acc (e, p) ->
        let q = Point.mul (Scalar.of_int (abs e)) p in
        Point.add acc (if e < 0 then Point.neg q else q))
      Point.identity pairs
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "signed msm_small jobs=%d" jobs)
        true
        (Point.equal want (Msm.msm_small ~jobs pairs)))
    jobs_ladder

let test_msm_small_qcheck =
  QCheck.Test.make ~count:30 ~name:"msm_small == naive signed sum"
    QCheck.(list_of_size (Gen.int_range 1 24) (int_range (-1 lsl 20) (1 lsl 20)))
    (fun es ->
      let pairs = Array.of_list (List.map (fun e -> (e, random_point ())) es) in
      let want =
        Array.fold_left
          (fun acc (e, p) ->
            let q = Point.mul (Scalar.of_int (abs e)) p in
            Point.add acc (if e < 0 then Point.neg q else q))
          Point.identity pairs
      in
      List.for_all (fun jobs -> Point.equal want (Msm.msm_small ~jobs pairs)) jobs_ladder)

(* The Straus/Pippenger switch inside [Msm.msm], at every job count: the
   sizes straddle [Msm.straus_cutoff], the terms mix random scalars with
   zero and ℓ−1, identity points and one repeated point, and every
   evaluation must count one msm.evals and n msm.points. *)
let test_msm_crossover_qcheck =
  let c = Msm.straus_cutoff in
  let c_evals = Telemetry.Counter.make "msm.evals" in
  let c_points = Telemetry.Counter.make "msm.points" in
  QCheck.Test.make ~count:12 ~name:"msm == naive sum across the Straus/Pippenger crossover"
    QCheck.(pair (oneofl [ 1; 2; 3; c - 1; c; c + 1; 2 * c ]) (int_bound 1_000_000))
    (fun (n, seed) ->
      let d = Prng.Drbg.create_string (Printf.sprintf "crossover/%d" seed) in
      let ell_minus_1 = Scalar.of_bigint (Bigint.sub Scalar.order Bigint.one) in
      let rep = random_point () in
      let pairs =
        Array.init n (fun _ ->
            let s =
              match Prng.Drbg.uniform_int d 4 with
              | 0 -> Scalar.zero
              | 1 -> ell_minus_1
              | _ -> Scalar.random d
            in
            let p =
              match Prng.Drbg.uniform_int d 4 with
              | 0 -> Point.identity
              | 1 -> rep
              | _ -> random_point ()
            in
            (s, p))
      in
      let want = naive_msm pairs in
      let was = Telemetry.enabled () in
      Telemetry.enable ();
      Fun.protect ~finally:(fun () -> if not was then Telemetry.disable ()) @@ fun () ->
      List.for_all
        (fun jobs ->
          let e0 = Telemetry.Counter.value c_evals and p0 = Telemetry.Counter.value c_points in
          let got = Msm.msm ~jobs pairs in
          Point.equal want got
          && Telemetry.Counter.value c_evals = e0 + 1
          && Telemetry.Counter.value c_points = p0 + n)
        jobs_ladder)

(* --- commitment generation is jobs-invariant --- *)

let test_commit_vec_jobs_invariant () =
  let g = random_point () and h = random_point () in
  let key = Commitments.Pedersen.make_key ~g ~h in
  let bases = Array.init 64 (fun _ -> random_point ()) in
  let values = Array.init 64 (fun i -> ((i * 37) mod 400) - 200) in
  let blind = Scalar.random drbg in
  let run jobs =
    let saved = Parallel.default_jobs () in
    Parallel.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.set_default_jobs saved)
      (fun () ->
        (* the tables are built at this job count too: the build splits
           the bases over the pool *)
        let w_comb = Point.Comb.make bases in
        Commitments.Pedersen.commit_vec ~g_table:key.Commitments.Pedersen.g_table ~w_comb ~values
          ~blind)
  in
  let want = run 1 in
  List.iter
    (fun jobs ->
      let got = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "commit_vec jobs=%d" jobs)
        true
        (Array.for_all2 Point.equal want got))
    jobs_ladder

(* --- the setup's lazy comb tables, first forced inside a region --- *)

let test_w_comb_forced_in_region () =
  let params =
    Params.make ~n_clients:4 ~max_malicious:1 ~d:64 ~k:4 ~m_factor:64.0 ~bound_b:1000.0 ()
  in
  let setup = Setup.create ~label:"test-parallel-comb" params in
  (* every task races to build the tables; a bare Lazy.force from two
     domains raises CamlinternalLazy.Undefined *)
  let got = Parallel.parallel_init ~jobs:4 16 (fun _ -> Setup.w_comb setup) in
  Array.iter
    (fun c -> Alcotest.(check bool) "one shared table" true (c == got.(0)))
    got;
  let r = Scalar.random drbg in
  Array.iteri
    (fun l p ->
      Alcotest.(check bool)
        (Printf.sprintf "base %d" l)
        true
        (Point.equal p (Point.mul r setup.Setup.w.(l))))
    (Point.Comb.mul_all got.(0) r (fun _ p -> p))

(* --- the range prover's lazy generator tables, first forced inside a
   region --- *)

let test_bp_tables_forced_in_region () =
  let gens = Zkp.Range_proof.make_gens ~label:"test-parallel-bp" 16 in
  let got = Parallel.parallel_init ~jobs:4 16 (fun _ -> Zkp.Range_proof.tables gens) in
  Array.iter (fun t -> Alcotest.(check bool) "one shared table" true (t == got.(0))) got;
  let bases = Array.concat [ gens.Zkp.Range_proof.gv; gens.Zkp.Range_proof.hv; [| gens.Zkp.Range_proof.u |] ] in
  let terms = Array.mapi (fun i _ -> (Scalar.random drbg, i)) bases in
  Alcotest.(check bool)
    "tables hold g, h, u" true
    (Point.equal
       (Curve25519.Msm.msm (Array.map (fun (s, i) -> (s, bases.(i))) terms))
       (Curve25519.Msm.Fixed.msm got.(0) terms))

(* --- full protocol: parallel verification == sequential --- *)

let test_protocol_jobs_invariant () =
  let params =
    Params.make ~n_clients:4 ~max_malicious:1 ~d:16 ~k:4 ~m_factor:64.0 ~bound_b:1000.0 ()
  in
  let setup = Setup.create ~label:"test-parallel-proto" params in
  let mk_updates () =
    Array.init 4 (fun i -> Array.init 16 (fun l -> ((i * 31) + (l * 7) + 3) mod 200 - 100))
  in
  let run jobs =
    let saved = Parallel.default_jobs () in
    Parallel.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.set_default_jobs saved)
      (fun () ->
        let updates = mk_updates () in
        (* client 2 grossly oversized: must land in C* at every job count *)
        let norm = Encoding.Fixed_point.l2_norm_encoded updates.(1) in
        let factor = int_of_float (Float.round (100.0 *. 1000.0 /. norm)) in
        updates.(1) <- Array.map (fun x -> factor * x) updates.(1);
        let behaviours = Driver.honest_all 4 in
        behaviours.(1) <- Driver.Oversized 100.0;
        let stats =
          Driver.completed_exn
            (Driver.run_round_outcome
               (Driver.create_session setup ~seed:"jobs-inv")
               ~updates ~behaviours ~round:1)
        in
        (stats.Driver.flagged, stats.Driver.aggregate))
  in
  let flagged1, agg1 = run 1 in
  Alcotest.(check (list int)) "attacker rejected at jobs=1" [ 2 ] flagged1;
  List.iter
    (fun jobs ->
      let flagged, agg = run jobs in
      Alcotest.(check (list int))
        (Printf.sprintf "same rejected set, jobs=%d" jobs)
        flagged1 flagged;
      match (agg1, agg) with
      | Some a1, Some a -> Alcotest.(check (array int)) "same aggregate" a1 a
      | None, None -> ()
      | _ -> Alcotest.fail "aggregate presence differs across job counts")
    [ 2; 4 ]

let () =
  Alcotest.run "parallel"
    [
      ( "combinators",
        [
          Alcotest.test_case "parallel_init" `Quick test_parallel_init;
          Alcotest.test_case "parallel_map/mapi" `Quick test_parallel_map_mapi;
          Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "map_chunks tiles the range" `Quick test_map_chunks_partition;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "tree_combine" `Quick test_tree_combine;
          Alcotest.test_case "nested regions run inline" `Quick test_nested_regions_inline;
        ] );
      ( "to_digits",
        [ Alcotest.test_case "matches testbit reference" `Quick test_to_digits_matches_testbit ] );
      ( "msm",
        [
          Alcotest.test_case "matches naive sum" `Quick test_msm_matches_naive;
          Alcotest.test_case "edge cases" `Quick test_msm_edge_cases;
          Alcotest.test_case "jobs-invariant at two chunks" `Quick test_msm_chunk_boundary;
          Alcotest.test_case "signed small exponents" `Quick test_msm_small_signed;
          QCheck_alcotest.to_alcotest test_msm_small_qcheck;
          QCheck_alcotest.to_alcotest test_msm_crossover_qcheck;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "commit_vec jobs-invariant" `Quick test_commit_vec_jobs_invariant;
          Alcotest.test_case "comb tables forced inside a region" `Quick
            test_w_comb_forced_in_region;
          Alcotest.test_case "bp tables forced inside a region" `Quick test_bp_tables_forced_in_region;
          Alcotest.test_case "verify/aggregate jobs-invariant" `Slow test_protocol_jobs_invariant;
        ] );
    ]
