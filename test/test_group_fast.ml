(* Group-layer fast paths: wNAF scalar multiplication, signed
   fixed-base tables, batched-affine MSM, the center-out BSGS solver,
   and the persistent table cache.  Every fast path is differentially
   tested against a slow reference, and the cache against corruption: a
   bad cache file must read as a miss, never as wrong data. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm
module Dlog = Curve25519.Dlog
module B = Bigint
module Cache = Store.Cache
module Group_cache = Risefl_core.Group_cache

let drbg = Prng.Drbg.create_string "test-group-fast"

let rand_scalar () = Scalar.random drbg
let rand_point () = Point.mul_base (rand_scalar ())

let check_point msg p q = Alcotest.(check bool) msg true (Point.equal p q)

(* (0, −1) has order 2 *)
let two_torsion =
  Option.get (Point.decompress_unchecked (Curve25519.Fe.to_bytes (Curve25519.Fe.neg Curve25519.Fe.one)))

let with_temp_dir f =
  let dir = Filename.temp_file "risefl-test-cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* --- wNAF variable-base mul vs double-and-add --- *)

let mul_ref s p =
  (* plain MSB-first double-and-add over the scalar's bits *)
  let e = Scalar.to_bigint s in
  let acc = ref Point.identity in
  for i = B.bit_length e - 1 downto 0 do
    acc := Point.double !acc;
    if B.testbit e i then acc := Point.add !acc p
  done;
  !acc

let test_wnaf_digits () =
  for _ = 1 to 50 do
    let s = rand_scalar () in
    let digits = Scalar.to_wnaf s in
    Alcotest.(check int) "256 digits" 256 (Array.length digits);
    (* each digit zero or odd, |d| <= 15; the digit sum reconstructs s *)
    let acc = ref B.zero in
    for i = 255 downto 0 do
      let d = digits.(i) in
      Alcotest.(check bool) "digit odd or zero" true (d = 0 || abs d land 1 = 1);
      Alcotest.(check bool) "digit magnitude" true (abs d <= 15);
      acc := B.add (B.add !acc !acc) (B.of_int d)
    done;
    Alcotest.(check string) "digits sum to scalar"
      (B.to_hex (Scalar.to_bigint s))
      (B.to_hex (B.erem !acc Scalar.order))
  done

let test_wnaf_mul_matches_reference () =
  for _ = 1 to 25 do
    let s = rand_scalar () and p = rand_point () in
    check_point "wNAF mul == double-and-add" (mul_ref s p) (Point.mul s p)
  done;
  (* edge scalars *)
  List.iter
    (fun s ->
      let p = rand_point () in
      check_point "edge scalar" (mul_ref s p) (Point.mul s p))
    [ Scalar.zero; Scalar.one; Scalar.of_int 15; Scalar.of_int 16;
      Scalar.neg Scalar.one; Scalar.of_bigint (B.sub Scalar.order B.one) ]

let test_double_mul_matches () =
  for _ = 1 to 15 do
    let s = rand_scalar () and t = rand_scalar () in
    let p = rand_point () and q = rand_point () in
    check_point "double_mul == mul+mul"
      (Point.add (mul_ref s p) (mul_ref t q))
      (Point.double_mul s p t q)
  done

let test_table_matches () =
  (* a random base, and one with a torsion component *)
  let p0 = rand_point () in
  List.iter
    (fun p ->
      let tbl = Point.Table.make p in
      for _ = 1 to 25 do
        let s = rand_scalar () in
        check_point "Table.mul == reference" (mul_ref s p) (Point.Table.mul tbl s)
      done;
      List.iter
        (fun e ->
          check_point
            (Printf.sprintf "Table.mul_small %d" e)
            (Point.mul_small e p)
            (Point.Table.mul_small tbl e))
        [ 0; 1; -1; 7; -8; 8; 15; 16; -16; 255; -255; 65535; -65536; max_int / 2; max_int; -max_int ])
    [ p0; Point.add p0 two_torsion ]

(* --- the shared off-heap store: checked indices, exact recoding --- *)

let test_niels_store () =
  let module S = Point.Niels_store in
  let bases = Array.init 17 (fun _ -> rand_point ()) in
  let s = S.build ~span:"test.store" ~entries:2 (fun p -> [| p; Point.double p |]) bases in
  Alcotest.(check int) "count" 17 (S.count s);
  (* base 16 sits in the second inversion block *)
  check_point "entry (16, 1) is 2·P" (Point.double bases.(16)) (Point.madd Point.identity (S.entry s 16 1));
  List.iter
    (fun (l, e) ->
      Alcotest.check_raises
        (Printf.sprintf "entry (%d, %d)" l e)
        (Invalid_argument "Point.Niels_store.entry")
        (fun () -> ignore (S.entry s l e)))
    [ (-1, 0); (17, 0); (0, -1); (0, 2) ];
  (* a limb past 32 bits (eight doublings without a carry) is refused *)
  let big = List.fold_left (fun x _ -> Curve25519.Fe.add x x) (Curve25519.Fe.of_int (-1)) (List.init 8 Fun.id) in
  Alcotest.check_raises "limb out of range" (Invalid_argument "Fe.store: limb out of 32-bit range") (fun () ->
      Curve25519.Fe.store (Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout Curve25519.Fe.limbs) 0 big);
  Alcotest.check_raises "wrong entry count" (Invalid_argument "Point.Niels_store.build: entry count") (fun () ->
      ignore (S.build ~span:"test.store" ~entries:3 (fun p -> [| p |]) bases));
  (* signed digits reconstruct the value and stay in range *)
  for _ = 1 to 20 do
    let k = Scalar.to_bigint (rand_scalar ()) in
    List.iter
      (fun (bits, count) ->
        let ds = S.signed_digits ~bits (B.to_digits ~bits ~count k) in
        let acc = ref B.zero in
        for w = count - 1 downto 0 do
          Alcotest.(check bool) "digit range" true (ds.(w) >= -(1 lsl (bits - 1)) && ds.(w) < 1 lsl (bits - 1));
          acc := B.add (B.shift_left !acc bits) (B.of_int ds.(w))
        done;
        Alcotest.(check string) (Printf.sprintf "radix 2^%d reconstruction" bits) (B.to_hex k) (B.to_hex !acc))
      [ (4, 64); (8, 32) ]
  done;
  Alcotest.check_raises "carry out of the top digit"
    (Invalid_argument "Point.Niels_store.signed_digits: carry out of the top digit")
    (fun () -> ignore (S.signed_digits ~bits:4 [| 15; 8 |]))

(* --- comb tables over many bases vs Point.mul --- *)

let test_comb_matches () =
  let l = Scalar.order in
  let edge =
    List.map Scalar.of_bigint
      [ B.zero; B.one; B.two; B.sub l B.one; B.sub l B.two; B.shift_left B.one 252 ]
  in
  (* random scalars of both parities: an even one runs as (k + 1)·P − P *)
  let rec draw want_odd =
    let s = rand_scalar () in
    if B.testbit (Scalar.to_bigint s) 0 = want_odd then s else draw want_odd
  in
  let scalars = edge @ List.init 6 (fun i -> draw (i mod 2 = 0)) in
  let derived = Array.init 4 (fun i -> Curve25519.Gens.derive (Printf.sprintf "test-comb/%d" i)) in
  (* a base with a torsion component: k + ℓ would name another multiple *)
  let bases = Array.concat [ [| Point.identity; Point.base; Point.add derived.(0) two_torsion |]; derived ] in
  let comb = Point.Comb.make bases in
  Alcotest.(check int) "length" (Array.length bases) (Point.Comb.length comb);
  List.iter
    (fun s ->
      let name = B.to_hex (Scalar.to_bigint s) in
      let all = Point.Comb.mul_all comb s (fun _ p -> p) in
      Array.iteri
        (fun i p ->
          Alcotest.(check bytes)
            (Printf.sprintf "Comb.mul_all %s, base %d" name i)
            (Point.compress (Point.mul s p)) (Point.compress all.(i)))
        bases)
    scalars

let test_msm_matches () =
  for _ = 1 to 5 do
    let n = 1 + Prng.Drbg.uniform_int drbg 40 in
    let pairs = Array.init n (fun _ -> (rand_scalar (), rand_point ())) in
    let reference =
      Array.fold_left (fun acc (s, p) -> Point.add acc (mul_ref s p)) Point.identity pairs
    in
    check_point "msm == sum of muls" reference (Msm.msm pairs);
    let small = Array.map (fun (_, p) -> (Prng.Drbg.uniform_int drbg 4000 - 2000, p)) pairs in
    let reference_small =
      Array.fold_left (fun acc (e, p) -> Point.add acc (Point.mul_small e p)) Point.identity small
    in
    check_point "msm_small == sum of mul_smalls" reference_small (Msm.msm_small small)
  done

(* --- MSM strategy crossover ---

   [Msm.msm] runs Straus up to [Msm.straus_cutoff] terms and Pippenger
   above; both must agree with the naive sum on either side of the
   switch, including the inputs each strategy special-cases (zero and
   ℓ−1 scalars, identity points, a point repeated across terms), and
   both must bump the msm.evals / msm.points counters. *)

let c_evals = Telemetry.Counter.make "msm.evals"
let c_points = Telemetry.Counter.make "msm.points"

let crossover_sizes =
  let c = Msm.straus_cutoff in
  [ 1; 2; 3; c - 1; c; c + 1; 2 * c ]

let crossover_terms n =
  let ell_minus_1 = Scalar.of_bigint (B.sub Scalar.order B.one) in
  let rep = rand_point () in
  Array.init n (fun i ->
      match i mod 6 with
      | 1 -> (Scalar.zero, rand_point ())
      | 2 -> (ell_minus_1, rand_point ())
      | 3 -> (rand_scalar (), Point.identity)
      | 4 -> (rand_scalar (), rep)
      | _ -> (rand_scalar (), if i mod 12 = 5 then rep else rand_point ()))

let with_telemetry f =
  let was = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was then Telemetry.disable ()) f

let test_msm_crossover () =
  with_telemetry @@ fun () ->
  List.iter
    (fun n ->
      let pairs = crossover_terms n in
      let want = Array.fold_left (fun acc (s, p) -> Point.add acc (Point.mul s p)) Point.identity pairs in
      List.iter
        (fun (name, f) ->
          let e0 = Telemetry.Counter.value c_evals and p0 = Telemetry.Counter.value c_points in
          check_point (Printf.sprintf "%s n=%d == naive" name n) want (f pairs);
          Alcotest.(check int) (Printf.sprintf "%s n=%d evals" name n) (e0 + 1) (Telemetry.Counter.value c_evals);
          Alcotest.(check int) (Printf.sprintf "%s n=%d points" name n) (p0 + n) (Telemetry.Counter.value c_points))
        [ ("msm", fun ps -> Msm.msm ps); ("straus", Msm.straus); ("pippenger", fun ps -> Msm.pippenger ps) ])
    crossover_sizes

(* --- fixed-base tables vs Msm.msm ---

   [Msm.Fixed] recodes each scalar exactly into signed 8-bit digits, so
   it must equal [Msm.msm] for any bases: the edge scalars (the digit
   carries of ℓ−1, ℓ−2 and 2^252), the identity base, a base with a
   torsion component, and base indices repeated across terms. *)

let test_fixed_matches () =
  with_telemetry @@ fun () ->
  let l = Scalar.order in
  let edge =
    Array.of_list
      (List.map Scalar.of_bigint [ B.zero; B.one; B.two; B.sub l B.one; B.sub l B.two; B.shift_left B.one 252 ])
  in
  let derived = Array.init 12 (fun i -> Curve25519.Gens.derive (Printf.sprintf "test-fixed/%d" i)) in
  let bases =
    Array.concat [ [| Point.identity; Point.base; Point.add derived.(0) two_torsion |]; derived ]
  in
  let nb = Array.length bases in
  let fixed = Msm.Fixed.make bases in
  Alcotest.(check int) "length" nb (Msm.Fixed.length fixed);
  List.iter
    (fun n ->
      (* index 7i mod nb repeats every base once n > nb *)
      let terms =
        Array.init n (fun i ->
            ((if i < 2 * Array.length edge then edge.(i mod Array.length edge) else rand_scalar ()), i * 7 mod nb))
      in
      let want = Msm.msm (Array.map (fun (s, i) -> (s, bases.(i))) terms) in
      let e0 = Telemetry.Counter.value c_evals and p0 = Telemetry.Counter.value c_points in
      Alcotest.(check bytes)
        (Printf.sprintf "Fixed.msm n=%d == msm" n)
        (Point.compress want)
        (Point.compress (Msm.Fixed.msm fixed terms));
      Alcotest.(check int) (Printf.sprintf "n=%d evals" n) (e0 + 1) (Telemetry.Counter.value c_evals);
      Alcotest.(check int) (Printf.sprintf "n=%d points" n) (p0 + n) (Telemetry.Counter.value c_points))
    [ 0; 1; 2; 65; 129; 257 ];
  (* every edge scalar alone on every base *)
  Array.iter
    (fun s ->
      Array.iteri
        (fun i p ->
          Alcotest.(check bytes)
            (Printf.sprintf "Fixed.msm %s, base %d" (B.to_hex (Scalar.to_bigint s)) i)
            (Point.compress (Point.mul s p))
            (Point.compress (Msm.Fixed.msm fixed [| (s, i) |])))
        bases)
    edge;
  Alcotest.check_raises "index out of range" (Invalid_argument "Msm.Fixed.msm: base index out of range")
    (fun () -> ignore (Msm.Fixed.msm fixed [| (Scalar.one, nb) |]))

(* --- Dlog edge cases --- *)

let test_dlog_zero_range () =
  (* max_abs = 0: only the identity is solvable *)
  let t = Dlog.create ~base:Point.base ~max_abs:0 () in
  Alcotest.(check (option int)) "identity solves to 0" (Some 0) (Dlog.solve t Point.identity);
  Alcotest.(check (option int)) "base is out of range" None (Dlog.solve t Point.base)

let test_dlog_extremes () =
  let max_abs = 1000 in
  let t = Dlog.create ~base:Point.base ~max_abs () in
  List.iter
    (fun x ->
      Alcotest.(check (option int))
        (Printf.sprintf "solve %d" x)
        (Some x)
        (Dlog.solve t (Point.mul_small x Point.base)))
    [ max_abs; -max_abs; max_abs - 1; -(max_abs - 1); 0; 1; -1 ];
  (* just out of range on both sides *)
  List.iter
    (fun x ->
      Alcotest.(check (option int))
        (Printf.sprintf "out of range %d" x)
        None
        (Dlog.solve t (Point.mul_small x Point.base)))
    [ max_abs + 1; -(max_abs + 1) ]

let test_dlog_identity_base () =
  (* base = identity: every baby key collides on compress(identity) and
     first-writer-wins must keep j = 0, so the identity target decodes
     to the centered representative and everything else returns None *)
  let t = Dlog.create ~base:Point.identity ~max_abs:50 () in
  (match Dlog.solve t Point.identity with
  | Some x -> Alcotest.(check bool) "identity target in range" true (abs x <= 50)
  | None -> Alcotest.fail "identity target must solve");
  Alcotest.(check (option int)) "non-multiple unsolvable" None (Dlog.solve t (rand_point ()))

let test_dlog_m_scale () =
  let max_abs = 2000 in
  let small = Dlog.create ~m_scale:0.25 ~base:Point.base ~max_abs () in
  let big = Dlog.create ~m_scale:4.0 ~base:Point.base ~max_abs () in
  Alcotest.(check bool) "m_scale scales the table" true
    (Dlog.table_size big > 4 * Dlog.table_size small);
  for _ = 1 to 20 do
    let x = Prng.Drbg.uniform_int drbg (2 * max_abs) - max_abs in
    let p = Point.mul_small x Point.base in
    Alcotest.(check (option int)) "small-table solve" (Some x) (Dlog.solve small p);
    Alcotest.(check (option int)) "big-table solve" (Some x) (Dlog.solve big p)
  done

let test_dlog_solve_many_jobs_invariant () =
  let max_abs = 3000 in
  let t = Dlog.create ~base:Point.base ~max_abs () in
  let xs = Array.init 64 (fun i -> ((i * 97) mod (2 * max_abs)) - max_abs) in
  let targets = Array.map (fun x -> Point.mul_small x Point.base) xs in
  let expected = Array.map (fun x -> Some x) xs in
  List.iter
    (fun jobs ->
      let solved = Dlog.solve_many ~jobs t targets in
      Alcotest.(check (array (option int)))
        (Printf.sprintf "solve_many at jobs=%d" jobs)
        expected solved)
    [ 1; 2; 4 ]

(* --- serialization + cache --- *)

let test_dlog_serialization_roundtrip () =
  let t = Dlog.create ~base:Point.base ~max_abs:500 () in
  let b = Dlog.to_bytes t in
  match Dlog.of_bytes ~base:Point.base b with
  | None -> Alcotest.fail "of_bytes rejected its own to_bytes"
  | Some t' ->
      Alcotest.(check bytes) "bit-identical reserialization" b (Dlog.to_bytes t');
      Alcotest.(check int) "same m" (Dlog.table_size t) (Dlog.table_size t');
      for x = -500 to 500 do
        if x mod 83 = 0 then
          Alcotest.(check (option int))
            (Printf.sprintf "loaded solver solves %d" x)
            (Some x)
            (Dlog.solve t' (Point.mul_small x Point.base))
      done

let test_dlog_of_bytes_rejects_garbage () =
  let t = Dlog.create ~base:Point.base ~max_abs:100 () in
  let good = Dlog.to_bytes t in
  let reject msg b =
    Alcotest.(check bool) msg true (Dlog.of_bytes ~base:Point.base b = None)
  in
  reject "empty" Bytes.empty;
  reject "truncated" (Bytes.sub good 0 (Bytes.length good - 7));
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  reject "bad magic" bad_magic;
  let bad_key = Bytes.copy good in
  (* flip a byte inside the j=0 key (the identity's compression) *)
  Bytes.set bad_key 12 (Char.chr (Char.code (Bytes.get bad_key 12) lxor 1));
  reject "corrupt identity entry" bad_key

let test_table_serialization_roundtrip () =
  let p = rand_point () in
  let tbl = Point.Table.make p in
  let b = Point.Table.to_bytes tbl in
  Alcotest.(check int) "serialized_size" Point.Table.serialized_size (Bytes.length b);
  (match Point.Table.of_bytes ~base:p b with
  | None -> Alcotest.fail "of_bytes rejected its own to_bytes"
  | Some tbl' ->
      Alcotest.(check bytes) "bit-identical reserialization" b (Point.Table.to_bytes tbl');
      for _ = 1 to 10 do
        let s = rand_scalar () in
        check_point "loaded table multiplies" (Point.Table.mul tbl s) (Point.Table.mul tbl' s)
      done);
  (* wrong base must be rejected even though the bytes are intact *)
  Alcotest.(check bool) "wrong base rejected" true
    (Point.Table.of_bytes ~base:(rand_point ()) b = None);
  let truncated = Bytes.sub b 0 (Bytes.length b - 1) in
  Alcotest.(check bool) "truncated rejected" true (Point.Table.of_bytes ~base:p truncated = None)

let test_cache_roundtrip_and_corruption () =
  with_temp_dir @@ fun dir ->
  let c = Cache.open_ ~dir in
  Alcotest.(check (option bytes)) "missing key" None (Cache.load c ~key:"nope");
  let payload = Bytes.of_string "hello group tables" in
  Cache.save c ~key:"k1" payload;
  Alcotest.(check (option bytes)) "round-trip" (Some payload) (Cache.load c ~key:"k1");
  Cache.save c ~key:"k1" (Bytes.of_string "v2");
  Alcotest.(check (option bytes)) "overwrite" (Some (Bytes.of_string "v2")) (Cache.load c ~key:"k1");
  (* corrupt / truncate every cache file: loads must turn into misses *)
  Cache.save c ~key:"k2" payload;
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (len / 2) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
      Unix.close fd)
    (Sys.readdir dir);
  Alcotest.(check (option bytes)) "corrupt k1 is a miss" None (Cache.load c ~key:"k1");
  Alcotest.(check (option bytes)) "corrupt k2 is a miss" None (Cache.load c ~key:"k2");
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len / 3);
      Unix.close fd)
    (Sys.readdir dir);
  Alcotest.(check (option bytes)) "truncated is a miss" None (Cache.load c ~key:"k1");
  (* a save after corruption heals the entry *)
  Cache.save c ~key:"k1" payload;
  Alcotest.(check (option bytes)) "healed" (Some payload) (Cache.load c ~key:"k1")

let test_group_cache_bit_identity () =
  with_temp_dir @@ fun dir ->
  let cache = Cache.open_ ~dir in
  let base = rand_point () in
  let max_abs = 700 in
  (* first call builds + saves; second loads; both must serialize equal *)
  let built = Group_cache.dlog ~cache ~base ~max_abs () in
  let loaded = Group_cache.dlog ~cache ~base ~max_abs () in
  Alcotest.(check bytes) "dlog cached == built" (Dlog.to_bytes built) (Dlog.to_bytes loaded);
  let tb = Group_cache.table ~cache ~label:"t" ~base () in
  let tl = Group_cache.table ~cache ~label:"t" ~base () in
  Alcotest.(check bytes) "table cached == built" (Point.Table.to_bytes tb)
    (Point.Table.to_bytes tl);
  for x = -max_abs to max_abs do
    if x mod 131 = 0 then
      Alcotest.(check (option int))
        (Printf.sprintf "loaded dlog solves %d" x)
        (Some x)
        (Dlog.solve loaded (Point.mul_small x base))
  done;
  (* corrupt every cache file: constructors must rebuild, not fail *)
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd 7;
      Unix.close fd)
    (Sys.readdir dir);
  let rebuilt = Group_cache.dlog ~cache ~base ~max_abs () in
  Alcotest.(check bytes) "rebuilt after corruption" (Dlog.to_bytes built) (Dlog.to_bytes rebuilt);
  let trebuilt = Group_cache.table ~cache ~label:"t" ~base () in
  Alcotest.(check bytes) "table rebuilt after corruption" (Point.Table.to_bytes tb)
    (Point.Table.to_bytes trebuilt)

let () =
  Alcotest.run "group-fast"
    [
      ( "wnaf",
        [
          Alcotest.test_case "digit invariants + reconstruction" `Quick test_wnaf_digits;
          Alcotest.test_case "mul vs double-and-add" `Quick test_wnaf_mul_matches_reference;
          Alcotest.test_case "double_mul" `Quick test_double_mul_matches;
          Alcotest.test_case "fixed-base table" `Quick test_table_matches;
          Alcotest.test_case "off-heap table store" `Quick test_niels_store;
          Alcotest.test_case "comb tables vs mul" `Quick test_comb_matches;
          Alcotest.test_case "msm differential" `Quick test_msm_matches;
          Alcotest.test_case "msm Straus/Pippenger crossover" `Quick test_msm_crossover;
          Alcotest.test_case "fixed-base tables vs msm" `Quick test_fixed_matches;
        ] );
      ( "dlog",
        [
          Alcotest.test_case "max_abs = 0" `Quick test_dlog_zero_range;
          Alcotest.test_case "extremes and out-of-range" `Quick test_dlog_extremes;
          Alcotest.test_case "identity base (colliding keys)" `Quick test_dlog_identity_base;
          Alcotest.test_case "m_scale knob" `Quick test_dlog_m_scale;
          Alcotest.test_case "solve_many jobs-invariant" `Quick test_dlog_solve_many_jobs_invariant;
        ] );
      ( "cache",
        [
          Alcotest.test_case "dlog serialization round-trip" `Quick test_dlog_serialization_roundtrip;
          Alcotest.test_case "dlog rejects garbage" `Quick test_dlog_of_bytes_rejects_garbage;
          Alcotest.test_case "table serialization round-trip" `Quick test_table_serialization_roundtrip;
          Alcotest.test_case "cache round-trip + corruption" `Quick test_cache_roundtrip_and_corruption;
          Alcotest.test_case "cached vs rebuilt bit-identity" `Quick test_group_cache_bit_identity;
        ] );
    ]
