module Point = Curve25519.Point
module Gens = Curve25519.Gens

type w_tables = { lock : Mutex.t; tables : Point.Comb.t Lazy.t }

type t = {
  params : Params.t;
  g : Point.t;
  q : Point.t;
  w : Point.t array;
  w_tables : w_tables;
  g_table : Point.Table.table;
  q_table : Point.Table.table;
  bp_gens : Zkp.Range_proof.gens;
  b0 : Bigint.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let bp_gen_count (p : Params.t) =
  Stdlib.max (next_pow2 p.Params.k * p.Params.b_ip_bits) p.Params.b_max_bits

let create ~label (params : Params.t) =
  let g = Gens.derive (label ^ "/g") in
  let q = Gens.derive (label ^ "/q") in
  let w = Gens.derive_many (label ^ "/w") params.Params.d in
  (* the two fixed-base tables dominate cold setup; pull them through the
     persistent cache when one is configured *)
  let g_table = Group_cache.table ~label:(label ^ "/g") ~base:g () in
  let q_table = Group_cache.table ~label:(label ^ "/q") ~base:q () in
  {
    params;
    g;
    q;
    w;
    w_tables = { lock = Mutex.create (); tables = lazy (Point.Comb.make w) };
    g_table;
    q_table;
    bp_gens = Zkp.Range_proof.make_gens ~label:(label ^ "/bp") (bp_gen_count params);
    b0 = Params.b0 params;
  }

(* the mutex makes the first force domain-safe: a Lazy.t forced from two
   domains at once raises, and the first caller may well be inside a
   Parallel region (a client's commit, the server's aggregation tail) *)
let w_comb t = Mutex.protect t.w_tables.lock (fun () -> Lazy.force t.w_tables.tables)
