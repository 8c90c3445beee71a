(* Curve25519 substrate tests: the field is cross-checked against the
   Bigint reference, the group against Ed25519 known answers and algebraic
   laws, MSM/Dlog/Gens against direct computation. *)

module Fe = Curve25519.Fe
module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm
module Dlog = Curve25519.Dlog
module Gens = Curve25519.Gens
module B = Bigint

let drbg = Prng.Drbg.create_string "test-curve"

let rand_fe () = Fe.of_bigint (B.random ~bits:300 (Prng.Drbg.rand26 drbg))
let rand_scalar () = Scalar.random drbg
let rand_point () = Point.mul_base (rand_scalar ())

let check_fe msg a b = Alcotest.(check string) msg (B.to_hex a) (B.to_hex b)

(* --- field --- *)

let fe_ref_op op a b = B.erem (op a b) Fe.p

let test_fe_roundtrip () =
  for _ = 1 to 50 do
    let x = B.erem (B.random ~bits:300 (Prng.Drbg.rand26 drbg)) Fe.p in
    check_fe "roundtrip" x (Fe.to_bigint (Fe.of_bigint x))
  done

let p58 = B.shift_right (B.sub Fe.p (B.of_int 5)) 3

let test_fe_ops_vs_bigint () =
  for _ = 1 to 100 do
    let a = rand_fe () and b = rand_fe () in
    let ab = Fe.to_bigint a and bb = Fe.to_bigint b in
    check_fe "add" (fe_ref_op B.add ab bb) (Fe.to_bigint (Fe.add a b));
    check_fe "sub" (fe_ref_op B.sub ab bb) (Fe.to_bigint (Fe.sub a b));
    check_fe "mul" (fe_ref_op B.mul ab bb) (Fe.to_bigint (Fe.mul a b));
    check_fe "square" (fe_ref_op B.mul ab ab) (Fe.to_bigint (Fe.square a));
    check_fe "neg" (B.erem (B.neg ab) Fe.p) (Fe.to_bigint (Fe.neg a));
    check_fe "pow_p58" (B.mod_pow ab p58 Fe.p) (Fe.to_bigint (Fe.pow_p58 a))
  done;
  check_fe "pow_p58 0 = 0" B.zero (Fe.to_bigint (Fe.pow_p58 Fe.zero))

(* The kernels skip carrying after add/sub/neg, so mul and square see
   sums of up to three carried values (double's [sub h (square (add x
   y))], madd's [sub (add z z) c]) and sums of a freshly decoded,
   unreduced element with a carried one (add's [sub y x] after
   decompression).  Build those at the largest limb magnitudes and check
   every product against Bigint.  The kernels compute in 64-bit ints, and
   ref10's bound keeps every intermediate below 2^62: an input that broke
   it would wrap past 2^63 and show up as a wrong value.  The same inputs
   go through [mul_small] by 2 (as point doubling uses it) and by 121666
   (as the curve constant's check does), and through the two addition
   chains, whose first step squares the input as it stands. *)
let test_fe_uncarried_headroom () =
  let offsets = [| 0; 26; 51; 77; 102; 128; 153; 179; 204; 230 |] in
  (* carried extreme: each even limb 2^25 - 1, each odd limb 2^24 - 1 *)
  let top =
    Array.fold_left B.add B.zero
      (Array.mapi
         (fun i off -> B.shift_left (B.of_int ((1 lsl if i land 1 = 0 then 25 else 24) - 1)) off)
         offsets)
  in
  let hi = Fe.mul_small (Fe.of_bigint top) 1 in
  let lo = Fe.neg hi in
  (* unreduced decode: every limb at its 26/25-bit maximum, value 2^255 - 1 *)
  let raw = Fe.of_bytes (Bytes.make 32 '\xff') in
  let rand = rand_fe () in
  let inputs =
    [
      ("hi", hi);
      ("lo", lo);
      ("raw", raw);
      ("hi+raw", Fe.add hi raw);
      ("raw-lo", Fe.sub raw lo);
      ("lo-raw", Fe.sub lo raw);
      ("(hi+hi)-lo", Fe.sub (Fe.add hi hi) lo);
      ("(lo+lo)-hi", Fe.sub (Fe.add lo lo) hi);
      ("(hi+hi)-sq", Fe.sub (Fe.add hi hi) (Fe.square (Fe.add hi raw)));
      ("(r+r)-lo", Fe.sub (Fe.add rand rand) lo);
    ]
  in
  List.iter
    (fun (na, a) ->
      let ab = Fe.to_bigint a in
      check_fe ("square " ^ na) (fe_ref_op B.mul ab ab) (Fe.to_bigint (Fe.square a));
      List.iter
        (fun (nb, b) ->
          let bb = Fe.to_bigint b in
          check_fe
            (Printf.sprintf "mul %s %s" na nb)
            (fe_ref_op B.mul ab bb)
            (Fe.to_bigint (Fe.mul a b)))
        inputs;
      List.iter
        (fun c ->
          check_fe
            (Printf.sprintf "mul_small %s %d" na c)
            (fe_ref_op B.mul ab (B.of_int c))
            (Fe.to_bigint (Fe.mul_small a c)))
        [ 2; 121666 ];
      check_fe ("invert " ^ na) (B.mod_pow ab (B.sub Fe.p B.two) Fe.p) (Fe.to_bigint (Fe.invert a));
      check_fe ("pow_p58 " ^ na) (B.mod_pow ab p58 Fe.p) (Fe.to_bigint (Fe.pow_p58 a)))
    inputs

(* The kernels keep their limbs in unboxed 64-bit locals and allocate
   only the 10-limb result (11 words with its header).  A change that
   boxed one of those locals would still compute the right values, just
   slower; this catches it.  Bytecode boxes every int64, so the budget
   holds only for native code. *)
let test_fe_allocation_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let a = rand_fe () and b = rand_fe () in
  let calls = 1000 in
  List.iter
    (fun (name, f) ->
      ignore (Sys.opaque_identity (f ()));
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (f ()))
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
      (* one boxed local would add three words per call *)
      Alcotest.(check int) (name ^ " words per call") 11 (Float.to_int (Float.round per_call)))
    [
      ("mul", fun () -> Fe.mul a b);
      ("square", fun () -> Fe.square a);
      ("mul_small", fun () -> Fe.mul_small a 121666);
    ]

let test_fe_invert () =
  for _ = 1 to 20 do
    let a = rand_fe () in
    if not (Fe.is_zero a) then
      check_fe "a * a^-1" B.one (Fe.to_bigint (Fe.mul a (Fe.invert a)))
  done;
  Alcotest.(check bool) "inv 0 = 0" true (Fe.is_zero (Fe.invert Fe.zero))

let test_fe_mul_small () =
  for _ = 1 to 20 do
    let a = rand_fe () in
    let c = Prng.Drbg.bits drbg 29 in
    check_fe "mul_small"
      (B.erem (B.mul (Fe.to_bigint a) (B.of_int c)) Fe.p)
      (Fe.to_bigint (Fe.mul_small a c))
  done

let test_fe_sqrt_m1 () =
  check_fe "sqrt(-1)^2 = -1" (B.sub Fe.p B.one) (Fe.to_bigint (Fe.square Fe.sqrt_m1))

let test_fe_edwards_d () =
  (* d = -121665/121666: check 121666 * d = -121665 *)
  check_fe "121666 d = -121665"
    (B.erem (B.of_int (-121665)) Fe.p)
    (Fe.to_bigint (Fe.mul_small Fe.edwards_d 121666))

let test_fe_canonical_encoding () =
  (* p encodes as 0, p+1 as 1 *)
  check_fe "p = 0" B.zero (Fe.to_bigint (Fe.of_bigint Fe.p));
  let pp1 = Fe.of_bytes (B.to_bytes_le ~len:32 (B.add Fe.p B.one)) in
  check_fe "p+1 = 1" B.one (Fe.to_bigint pp1)

(* --- scalar --- *)

let test_scalar_ops () =
  for _ = 1 to 100 do
    let a = rand_scalar () and b = rand_scalar () in
    let ab = Scalar.to_bigint a and bb = Scalar.to_bigint b in
    let refop op = B.erem (op ab bb) Scalar.order in
    check_fe "add" (refop B.add) (Scalar.to_bigint (Scalar.add a b));
    check_fe "sub" (refop B.sub) (Scalar.to_bigint (Scalar.sub a b));
    check_fe "mul" (refop B.mul) (Scalar.to_bigint (Scalar.mul a b))
  done

let test_scalar_inv () =
  for _ = 1 to 20 do
    let a = rand_scalar () in
    if not (Scalar.is_zero a) then
      check_fe "inv" B.one (Scalar.to_bigint (Scalar.mul a (Scalar.inv a)))
  done


let test_scalar_signed () =
  Alcotest.(check int) "small" 42 (Scalar.to_int_signed (Scalar.of_int 42));
  Alcotest.(check int) "negative" (-42) (Scalar.to_int_signed (Scalar.of_int (-42)));
  Alcotest.(check int) "zero" 0 (Scalar.to_int_signed Scalar.zero)

let test_scalar_bytes () =
  for _ = 1 to 20 do
    let a = rand_scalar () in
    Alcotest.(check bool) "roundtrip" true (Scalar.equal a (Scalar.of_bytes (Scalar.to_bytes a)))
  done;
  (* non-canonical rejected: l itself *)
  Alcotest.check_raises "l rejected" (Invalid_argument "Scalar.of_bytes: non-canonical") (fun () ->
      ignore (Scalar.of_bytes (B.to_bytes_le ~len:32 Scalar.order)))

let test_scalar_dot_ints () =
  for _ = 1 to 20 do
    let n = 1 + Prng.Drbg.uniform_int drbg 200 in
    let a = Array.init n (fun _ -> Prng.Drbg.bits drbg 28 - (1 lsl 27)) in
    let u = Array.init n (fun _ -> Prng.Drbg.bits drbg 17 - (1 lsl 16)) in
    let expected =
      Array.to_list (Array.mapi (fun i x -> B.mul (B.of_int x) (B.of_int u.(i))) a)
      |> List.fold_left B.add B.zero
    in
    check_fe "dot" (B.erem expected Scalar.order) (Scalar.to_bigint (Scalar.dot_ints a u))
  done

(* --- golden Z_ℓ bytes ---

   The checks above compare the kernel with Bigint on random values;
   this one pins the canonical encodings of a seeded chain of scalar
   outputs — each step feeds the next — to a fixed SHA-256, so a change
   of representation has to reproduce every residue and every recoded
   digit bit for bit. *)

let golden_scalar_digest () =
  let d = Prng.Drbg.create_string "golden-scalar" in
  let out = Buffer.create 65536 in
  let emit x = Buffer.add_bytes out (Scalar.to_bytes x) in
  let emit_digits ds =
    Array.iter
      (fun v ->
        Buffer.add_string out (string_of_int v);
        Buffer.add_char out ',')
      ds
  in
  let small () = Prng.Drbg.bits d 62 - (1 lsl 61) in
  let x = ref (Scalar.random d) and y = ref (Scalar.of_bytes_wide (Prng.Drbg.bytes d 64)) in
  for i = 1 to 64 do
    let a = Scalar.mul !x !y in
    let b = Scalar.square a in
    let c = Scalar.mul_small b (if i mod 8 = 0 then max_int else small ()) in
    let e = Scalar.add c !x in
    let f = Scalar.sub e b in
    let g = Scalar.neg f in
    let h = Scalar.inv g in
    List.iter emit [ a; b; c; e; f; g; h ];
    emit_digits (Scalar.to_wnaf h);
    List.iter (fun bits -> emit_digits (Scalar.to_digits ~bits ~count:((256 / bits) + 2) g)) [ 4; 5; 8 ];
    x := h;
    y := Scalar.add (Scalar.random d) (Scalar.of_bytes_wide (Prng.Drbg.bytes d 64))
  done;
  Hashfn.Sha256.hex_digest_string (Buffer.contents out)

let test_golden_scalar_bytes () =
  Alcotest.(check string) "Z_l chain digest"
    "e2a19077f4b5d22b76e1a1311a19bc1a4c12aeef4716db7f31d93403d8bd4a1e" (golden_scalar_digest ())

(* --- limb and reduction boundaries, against Bigint --- *)

let l = Scalar.order
let pow2 n = B.shift_left B.one n

(* 2^(21i) ± 1, ℓ − 1, ℓ − 2, 2^252, 2^252 − 1 and (ℓ − 1)², each
   reduced mod ℓ by the reference *)
let boundary_values =
  let around i = [ B.add (pow2 (21 * i)) B.one; B.sub (pow2 (21 * i)) B.one ] in
  List.concat_map around (List.init 13 Fun.id)
  @ [ B.sub l B.one; B.sub l B.two; pow2 252; B.sub (pow2 252) B.one; B.mul (B.sub l B.one) (B.sub l B.one) ]
  |> List.map (fun v -> B.erem v l)

let test_scalar_boundaries () =
  let vs = List.map (fun v -> (v, Scalar.of_bigint v)) boundary_values in
  let chk msg expect got = check_fe msg expect (Scalar.to_bigint got) in
  List.iter
    (fun (a, sa) ->
      let na = B.to_hex a in
      chk ("roundtrip " ^ na) a sa;
      chk ("bytes " ^ na) a (Scalar.of_bytes (B.to_bytes_le ~len:32 a));
      chk ("square " ^ na) (B.erem (B.mul a a) l) (Scalar.square sa);
      chk ("neg " ^ na) (B.erem (B.neg a) l) (Scalar.neg sa);
      if not (B.is_zero a) then chk ("inv " ^ na) (B.mod_inv a l) (Scalar.inv sa);
      List.iter
        (fun bits ->
          let count = (256 / bits) + 2 in
          Alcotest.(check (array int))
            (Printf.sprintf "to_digits %d %s" bits na)
            (B.to_digits ~bits ~count a)
            (Scalar.to_digits ~bits ~count sa))
        [ 1; 4; 5; 8; 13; 21; 30 ];
      List.iter
        (fun (b, sb) ->
          let nb = na ^ " " ^ B.to_hex b in
          chk ("add " ^ nb) (B.erem (B.add a b) l) (Scalar.add sa sb);
          chk ("sub " ^ nb) (B.erem (B.sub a b) l) (Scalar.sub sa sb);
          chk ("mul " ^ nb) (B.erem (B.mul a b) l) (Scalar.mul sa sb))
        vs)
    vs;
  (* 64-byte reductions: all zeros, all ones, and every boundary value
     placed at the bottom and at the top of the wide input *)
  let wide b =
    check_fe ("wide " ^ B.to_hex b) (B.erem b l) (Scalar.to_bigint (Scalar.of_bytes_wide (B.to_bytes_le ~len:64 b)))
  in
  wide B.zero;
  check_fe "wide 0xff bytes" (B.erem (B.sub (pow2 512) B.one) l)
    (Scalar.to_bigint (Scalar.of_bytes_wide (Bytes.make 64 '\xff')));
  List.iter
    (fun v ->
      wide v;
      wide (B.shift_left v 256);
      wide (B.add (B.shift_left v 259) (B.sub l B.one)))
    boundary_values;
  (* decoding: ℓ − 1 is the largest canonical encoding; ℓ, ℓ + 1 and
     anything with bit 253, 254 or 255 set are not *)
  let decodes v = Scalar.of_bytes_opt (B.to_bytes_le ~len:32 v) <> None in
  Alcotest.(check bool) "l-1 accepted" true (decodes (B.sub l B.one));
  let rejects v = Alcotest.(check bool) ("rejects " ^ B.to_hex v) false (decodes v) in
  List.iter rejects [ l; B.add l B.one; B.sub (pow2 256) B.one ];
  List.iter
    (fun bit -> List.iter (fun v -> rejects (B.add v (pow2 bit))) (B.zero :: boundary_values))
    [ 253; 254; 255 ];
  Alcotest.(check bool) "short input" true (Scalar.of_bytes_opt (Bytes.make 31 '\000') = None)

(* random 30-bit multipliers, and every native int at the limb and
   sign edges, min_int included, gives the canonical product *)
let test_scalar_mul_small () =
  let chk a c =
    check_fe
      (Printf.sprintf "mul_small %s %d" (B.to_hex (Scalar.to_bigint a)) c)
      (B.erem (B.mul (Scalar.to_bigint a) (B.of_int c)) l)
      (Scalar.to_bigint (Scalar.mul_small a c))
  in
  for _ = 1 to 40 do
    chk (rand_scalar ()) (Prng.Drbg.bits drbg 30 - (1 lsl 29))
  done;
  List.iter
    (fun a ->
      List.iter (chk a) [ min_int; min_int + 1; max_int; 0; 1; -1; 1 lsl 42; -(1 lsl 42); (1 lsl 21) - 1 ])
    (List.map Scalar.of_bigint boundary_values @ List.init 8 (fun _ -> rand_scalar ()));
  check_fe "of_int min_int" (B.erem (B.of_int min_int) l) (Scalar.to_bigint (Scalar.of_int min_int));
  let m3 = Scalar.mul_small (Scalar.of_int 3) min_int in
  Alcotest.(check bool) "3 * min_int canonical" true (B.compare (Scalar.to_bigint m3) l < 0)

(* A kernel allocates only its 12-limb result (13 words with the
   header).  A re-boxed 64-bit local or a closure would still compute
   the right values, just slower; this catches it.  Bytecode boxes
   every int64, so the budget holds only for native code. *)
let test_scalar_allocation_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let a = rand_scalar () and b = rand_scalar () in
  let calls = 1000 in
  List.iter
    (fun (name, f) ->
      ignore (Sys.opaque_identity (f ()));
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (f ()))
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
      Alcotest.(check int) (name ^ " words per call") 13 (Float.to_int (Float.round per_call)))
    [
      ("mul", fun () -> Scalar.mul a b);
      ("square", fun () -> Scalar.square a);
      ("add", fun () -> Scalar.add a b);
      ("sub", fun () -> Scalar.sub a b);
      ("neg", fun () -> Scalar.neg a);
    ]

(* --- point --- *)

let test_base_point_encoding () =
  let enc = Point.compress Point.base in
  let hex = String.concat "" (List.init 32 (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get enc i)))) in
  Alcotest.(check string) "B compressed" "5866666666666666666666666666666666666666666666666666666666666666" hex

let test_base_order () =
  (* l * B = identity *)
  let lm1 = Scalar.of_bigint (B.sub Scalar.order B.one) in
  let p = Point.add (Point.mul lm1 Point.base) Point.base in
  Alcotest.(check bool) "l B = 0" true (Point.is_identity p)

let test_add_laws () =
  for _ = 1 to 20 do
    let p = rand_point () and q = rand_point () and r = rand_point () in
    Alcotest.(check bool) "comm" true (Point.equal (Point.add p q) (Point.add q p));
    Alcotest.(check bool) "assoc" true
      (Point.equal (Point.add (Point.add p q) r) (Point.add p (Point.add q r)));
    Alcotest.(check bool) "identity" true (Point.equal p (Point.add p Point.identity));
    Alcotest.(check bool) "inverse" true (Point.is_identity (Point.add p (Point.neg p)));
    Alcotest.(check bool) "double" true (Point.equal (Point.double p) (Point.add p p))
  done

let test_mul_linear () =
  for _ = 1 to 10 do
    let s = rand_scalar () and t = rand_scalar () in
    let p = rand_point () in
    (* (s+t) P = sP + tP *)
    Alcotest.(check bool) "distributes" true
      (Point.equal (Point.mul (Scalar.add s t) p) (Point.add (Point.mul s p) (Point.mul t p)));
    (* s(tP) = (st)P *)
    Alcotest.(check bool) "assoc" true
      (Point.equal (Point.mul s (Point.mul t p)) (Point.mul (Scalar.mul s t) p))
  done

let test_mul_edgecases () =
  let p = rand_point () in
  Alcotest.(check bool) "0 P" true (Point.is_identity (Point.mul Scalar.zero p));
  Alcotest.(check bool) "1 P" true (Point.equal p (Point.mul Scalar.one p));
  Alcotest.(check bool) "0 small" true (Point.is_identity (Point.mul_small 0 p));
  Alcotest.(check bool) "neg small" true (Point.equal (Point.neg p) (Point.mul_small (-1) p));
  Alcotest.(check bool) "7 small" true (Point.equal (Point.mul (Scalar.of_int 7) p) (Point.mul_small 7 p))

let test_mul_base_table () =
  for _ = 1 to 10 do
    let s = rand_scalar () in
    Alcotest.(check bool) "fixed = generic" true
      (Point.equal (Point.mul_base s) (Point.mul s Point.base))
  done

let test_table_arbitrary_base () =
  let p = rand_point () in
  let tbl = Point.Table.make p in
  for _ = 1 to 10 do
    let s = rand_scalar () in
    Alcotest.(check bool) "table mul" true (Point.equal (Point.Table.mul tbl s) (Point.mul s p))
  done;
  for _ = 1 to 10 do
    let n = Prng.Drbg.bits drbg 20 - (1 lsl 19) in
    Alcotest.(check bool) "table mul_small" true
      (Point.equal (Point.Table.mul_small tbl n) (Point.mul_small n p))
  done

let test_compress_roundtrip () =
  for _ = 1 to 20 do
    let p = rand_point () in
    match Point.decompress (Point.compress p) with
    | Some q -> Alcotest.(check bool) "roundtrip" true (Point.equal p q)
    | None -> Alcotest.fail "decompress failed"
  done

let test_decompress_rejects_garbage () =
  (* a y with no valid x: iterate until we find some rejected encodings *)
  let rejected = ref 0 in
  for i = 0 to 40 do
    let b = Prng.Drbg.bytes drbg 32 in
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 0x7f));
    (match Point.decompress_unchecked b with
    | None -> incr rejected
    | Some _ -> ());
    ignore i
  done;
  Alcotest.(check bool) "some rejected" true (!rejected > 5)

let test_decompress_rejects_noncanonical () =
  (* encoding of p+1 (= field value 1, non-canonical) must be rejected *)
  let bad = B.to_bytes_le ~len:32 (B.add Fe.p B.one) in
  Alcotest.(check bool) "non-canonical" true (Point.decompress_unchecked bad = None)

let test_double_mul () =
  for _ = 1 to 10 do
    let s = rand_scalar () and t = rand_scalar () in
    let p = rand_point () and q = rand_point () in
    Alcotest.(check bool) "double_mul" true
      (Point.equal (Point.double_mul s p t q) (Point.add (Point.mul s p) (Point.mul t q)))
  done

(* --- msm --- *)

let naive_msm pairs =
  Array.fold_left (fun acc (s, p) -> Point.add acc (Point.mul s p)) Point.identity pairs

let test_msm_matches_naive () =
  List.iter
    (fun n ->
      let pairs = Array.init n (fun _ -> (rand_scalar (), rand_point ())) in
      Alcotest.(check bool) (Printf.sprintf "msm n=%d" n) true
        (Point.equal (Msm.msm pairs) (naive_msm pairs)))
    [ 0; 1; 2; 3; 7; 32; 100 ]

let test_msm_small_matches_naive () =
  List.iter
    (fun n ->
      let pairs = Array.init n (fun _ -> (Prng.Drbg.bits drbg 25 - (1 lsl 24), rand_point ())) in
      let expected =
        Array.fold_left (fun acc (e, p) -> Point.add acc (Point.mul_small e p)) Point.identity pairs
      in
      Alcotest.(check bool) (Printf.sprintf "msm_small n=%d" n) true
        (Point.equal (Msm.msm_small pairs) expected))
    [ 0; 1; 2; 5; 33; 100 ]

let test_msm_zero_exponents () =
  let pairs = Array.init 5 (fun _ -> (Scalar.zero, rand_point ())) in
  Alcotest.(check bool) "all zero" true (Point.is_identity (Msm.msm pairs));
  let pairs = Array.init 5 (fun _ -> (0, rand_point ())) in
  Alcotest.(check bool) "all zero small" true (Point.is_identity (Msm.msm_small pairs))

(* --- dlog --- *)

let test_dlog_solves () =
  let solver = Dlog.create ~base:Point.base ~max_abs:5000 () in
  List.iter
    (fun x ->
      let p = Point.mul_small x Point.base in
      Alcotest.(check int) (Printf.sprintf "dlog %d" x) x (Dlog.solve_exn solver p))
    [ 0; 1; -1; 4999; -5000; 5000; 1234; -987 ]

let test_dlog_solve_many () =
  let solver = Dlog.create ~base:Point.base ~max_abs:2000 () in
  let xs = [| 0; 17; -1999; 2000; -3; 555 |] in
  let targets = Array.map (fun x -> Point.mul_small x Point.base) xs in
  let solved = Dlog.solve_many solver targets in
  Array.iteri
    (fun i v -> Alcotest.(check (option int)) (Printf.sprintf "x=%d" xs.(i)) (Some xs.(i)) v)
    solved;
  (* mixed solvable/unsolvable *)
  let mixed = [| Point.mul_small 5 Point.base; Point.mul_small 9999 Point.base |] in
  let solved = Dlog.solve_many solver mixed in
  Alcotest.(check (option int)) "solvable" (Some 5) solved.(0);
  Alcotest.(check (option int)) "unsolvable" None solved.(1)

let test_compress_batch () =
  let pts = Array.init 17 (fun i -> Point.mul_small (i * 31) Point.base) in
  let batch = Point.compress_batch pts in
  Array.iteri
    (fun i b ->
      Alcotest.(check bool) (Printf.sprintf "point %d" i) true (Bytes.equal b (Point.compress pts.(i))))
    batch;
  Alcotest.(check int) "empty" 0 (Array.length (Point.compress_batch [||]))

let test_fe_invert_batch () =
  let xs = Array.init 9 (fun i -> if i = 4 then Fe.zero else Fe.of_int (i + 1)) in
  let invs = Fe.invert_batch xs in
  Array.iteri
    (fun i inv ->
      if i = 4 then Alcotest.(check bool) "zero stays zero" true (Fe.is_zero inv)
      else Alcotest.(check bool) (Printf.sprintf "inv %d" i) true (Fe.equal Fe.one (Fe.mul xs.(i) inv)))
    invs

let test_dlog_out_of_range () =
  let solver = Dlog.create ~base:Point.base ~max_abs:100 () in
  let p = Point.mul_small 101 Point.base in
  Alcotest.(check bool) "out of range" true (Dlog.solve solver p = None)

(* --- gens --- *)

let test_gens_deterministic_and_distinct () =
  let g1 = Gens.derive "alpha" in
  let g1' = Gens.derive "alpha" in
  let g2 = Gens.derive "beta" in
  Alcotest.(check bool) "deterministic" true (Point.equal g1 g1');
  Alcotest.(check bool) "distinct" false (Point.equal g1 g2);
  let many = Gens.derive_many "w" 16 in
  Alcotest.(check int) "count" 16 (Array.length many);
  (* pairwise distinct *)
  Array.iteri
    (fun i p ->
      Array.iteri (fun j q -> if i < j then Alcotest.(check bool) "pair distinct" false (Point.equal p q)) many;
      Alcotest.(check bool) "not identity" false (Point.is_identity p))
    many

let test_gens_in_subgroup () =
  let g = Gens.derive "subgroup-check" in
  let lm1 = Scalar.of_bigint (B.sub Scalar.order B.one) in
  Alcotest.(check bool) "l g = 0" true (Point.is_identity (Point.add (Point.mul lm1 g) g))

let () =
  Alcotest.run "curve25519"
    [
      ( "fe",
        [
          Alcotest.test_case "roundtrip" `Quick test_fe_roundtrip;
          Alcotest.test_case "ops vs bigint" `Quick test_fe_ops_vs_bigint;
          Alcotest.test_case "un-carried headroom" `Quick test_fe_uncarried_headroom;
          Alcotest.test_case "allocation budget" `Quick test_fe_allocation_budget;
          Alcotest.test_case "invert" `Quick test_fe_invert;
          Alcotest.test_case "mul_small" `Quick test_fe_mul_small;
          Alcotest.test_case "sqrt(-1)" `Quick test_fe_sqrt_m1;
          Alcotest.test_case "edwards d" `Quick test_fe_edwards_d;
          Alcotest.test_case "canonical encoding" `Quick test_fe_canonical_encoding;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "ops vs bigint" `Quick test_scalar_ops;
          Alcotest.test_case "inv" `Quick test_scalar_inv;
          Alcotest.test_case "mul_small" `Quick test_scalar_mul_small;
          Alcotest.test_case "signed" `Quick test_scalar_signed;
          Alcotest.test_case "bytes" `Quick test_scalar_bytes;
          Alcotest.test_case "dot_ints" `Quick test_scalar_dot_ints;
          Alcotest.test_case "golden Z_l digest" `Quick test_golden_scalar_bytes;
          Alcotest.test_case "limb and reduction boundaries" `Quick test_scalar_boundaries;
          Alcotest.test_case "allocation budget" `Quick test_scalar_allocation_budget;
        ] );
      ( "point",
        [
          Alcotest.test_case "base encoding" `Quick test_base_point_encoding;
          Alcotest.test_case "base order" `Quick test_base_order;
          Alcotest.test_case "group laws" `Quick test_add_laws;
          Alcotest.test_case "mul linear" `Quick test_mul_linear;
          Alcotest.test_case "mul edge cases" `Quick test_mul_edgecases;
          Alcotest.test_case "fixed-base table" `Quick test_mul_base_table;
          Alcotest.test_case "arbitrary-base table" `Quick test_table_arbitrary_base;
          Alcotest.test_case "compress roundtrip" `Quick test_compress_roundtrip;
          Alcotest.test_case "reject garbage" `Quick test_decompress_rejects_garbage;
          Alcotest.test_case "reject non-canonical" `Quick test_decompress_rejects_noncanonical;
          Alcotest.test_case "double_mul" `Quick test_double_mul;
        ] );
      ( "msm",
        [
          Alcotest.test_case "matches naive" `Quick test_msm_matches_naive;
          Alcotest.test_case "small matches naive" `Quick test_msm_small_matches_naive;
          Alcotest.test_case "zero exponents" `Quick test_msm_zero_exponents;
        ] );
      ( "dlog",
        [
          Alcotest.test_case "solves" `Quick test_dlog_solves;
          Alcotest.test_case "solve_many" `Quick test_dlog_solve_many;
          Alcotest.test_case "compress batch" `Quick test_compress_batch;
          Alcotest.test_case "fe invert batch" `Quick test_fe_invert_batch;
          Alcotest.test_case "out of range" `Quick test_dlog_out_of_range;
        ] );
      ( "gens",
        [
          Alcotest.test_case "deterministic distinct" `Quick test_gens_deterministic_and_distinct;
          Alcotest.test_case "in subgroup" `Quick test_gens_in_subgroup;
        ] );
    ]
