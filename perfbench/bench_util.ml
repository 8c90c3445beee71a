(* Timing, summary statistics, JSON output and the host-noise probes
   shared by the end-to-end and traced runs. *)

let now () = Telemetry.Clock.now_s ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- summaries --- *)

let sorted xs = List.sort compare xs

(* linear-interpolated quantile of a non-empty sorted array *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else
      let f = pos -. float_of_int i in
      a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs =
  match xs with
  | [] -> nan
  | _ -> quantile_sorted (Array.of_list (sorted xs)) 0.5

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A timing as the benchmark records it: mean, median, quartiles, the
   highest percentile with at least ten samples beyond it (absent below
   20 samples), and the sample count. *)
type summary = {
  mean : float;
  med : float;
  q1 : float;
  q3 : float;
  tail : (float * float) option;
  count : int;
}

let summarize xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then { mean = nan; med = nan; q1 = nan; q3 = nan; tail = None; count = 0 }
  else
    let tail =
      if n < 20 then None
      else
        let q = 1.0 -. (10.0 /. float_of_int n) in
        Some (100.0 *. q, quantile_sorted a q)
    in
    {
      mean = mean xs;
      med = quantile_sorted a 0.5;
      q1 = quantile_sorted a 0.25;
      q3 = quantile_sorted a 0.75;
      tail;
      count = n;
    }

(* --- JSON, written by hand so every float keeps all its digits --- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

let summary_json s =
  Obj
    ([
       ("mean", Float s.mean);
       ("median", Float s.med);
       ("q1", Float s.q1);
       ("q3", Float s.q3);
       ("count", Int s.count);
     ]
    @
    match s.tail with
    | Some (p, v) -> [ ("tail_pct", Float p); ("tail", Float v) ]
    | None -> [ ("tail", Null) ])

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- host-noise probes ---

   Fixed loops that call no repository code, sampled between rounds: a
   slow host phase shows in them, a regression in the program does not.
   [int_loop] is pure ALU work; [exp_loop] is 3072 square-and-multiply
   exponentiations with 255-bit exponents in the multiplicative group
   mod 2^31 - 1, the shape of a scalar-multiplication ladder; [mem_loop]
   chases pointers through 16 MiB, so it slows when other tenants
   contend for the shared cache and memory, which the first two do not
   feel. [exp_loop] is one dependent chain, bound by latency; [mul_loop]
   runs four independent multiply-add chains, bound by throughput like
   the field arithmetic, so it slows (as the protocol's curve operations
   do, by up to 2x) when another tenant shares the physical core, while
   [exp_loop] stays flat. *)

let int_loop () =
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13) land 0xFFFFFFFF;
    x := !x lxor (!x lsr 17);
    x := !x lxor (!x lsl 5) land 0xFFFFFFFF;
    acc := !acc + (!x land 0xFF)
  done;
  !acc

let mul_loop () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 3_000_000 do
    a := (!a * 0x9E3779B1) + i;
    b := (!b * 0x85EBCA77) + i;
    c := (!c * 0xC2B2AE3D) + i;
    d := (!d * 0x27D4EB2F) + i
  done;
  !a + !b + !c + !d

let exp_loop () =
  let p = 0x7FFFFFFF in
  let acc = ref 1 in
  for j = 1 to 3072 do
    let base = (j * 48271) mod p and r = ref 1 in
    for bit = 254 downto 0 do
      r := !r * !r mod p;
      if (bit * 7919 + j) land 3 <> 0 then r := !r * base mod p
    done;
    acc := !acc * !r mod p
  done;
  !acc

(* one fixed random cycle through 2^21 slots of a Bigarray, kept off
   the OCaml heap so it never shows in the heap metrics *)
let chase =
  lazy
    (let n = 1 lsl 21 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: a single cycle through every slot *)
     let s = ref 0x2545F491 in
     for i = n - 1 downto 1 do
       s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
       let j = !s mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let mem_loop () =
  let a = Lazy.force chase in
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := a.{!p}
  done;
  !p

type host = {
  mutable int_s : float list;
  mutable exp_s : float list;
  mutable mul_s : float list;
  mutable mem_s : float list;
}

let host = { int_s = []; exp_s = []; mul_s = []; mem_s = [] }

let sample_host () =
  let (_ : int), ti = time int_loop in
  let (_ : int), te = time exp_loop in
  let (_ : int), tu = time mul_loop in
  let (_ : int), tm = time mem_loop in
  host.int_s <- ti :: host.int_s;
  host.exp_s <- te :: host.exp_s;
  host.mul_s <- tu :: host.mul_s;
  host.mem_s <- tm :: host.mem_s

let host_json () =
  Obj
    [
      ("int_loop_s", summary_json (summarize host.int_s));
      ("exp_loop_s", summary_json (summarize host.exp_s));
      ("mul_loop_s", summary_json (summarize host.mul_s));
      ("mem_loop_s", summary_json (summarize host.mem_s));
    ]
