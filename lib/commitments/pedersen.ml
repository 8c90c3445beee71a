module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type key = { g : Point.t; h : Point.t; g_table : Point.Table.table; h_table : Point.Table.table }

let make_key ~g ~h = { g; h; g_table = Point.Table.make g; h_table = Point.Table.make h }

let commit key ~value ~blind =
  Point.add (Point.Table.mul key.g_table value) (Point.Table.mul key.h_table blind)

let commit_small key ~value ~blind =
  Point.add (Point.Table.mul_small key.g_table value) (Point.Table.mul key.h_table blind)

let verify_open key c ~value ~blind = Point.equal c (commit key ~value ~blind)

let commit_vec ~g_table ~w_comb ~values ~blind =
  if Point.Comb.length w_comb <> Array.length values then
    invalid_arg "Pedersen.commit_vec: length mismatch";
  (* d commitments g^{u_l} w_l^{r} sharing one blind — the client's
     dominant per-round cost: the comb recodes r once for all d bases *)
  Point.Comb.mul_all w_comb blind (fun l wr -> Point.add (Point.Table.mul_small g_table values.(l)) wr)

let add c1 c2 =
  if Array.length c1 <> Array.length c2 then invalid_arg "Pedersen.add: length mismatch";
  Array.map2 Point.add c1 c2

module Elgamal = struct
  type t = { c : Point.t; d : Point.t }

  let commit key ~value ~blind =
    { c = commit_small key ~value ~blind; d = Point.Table.mul key.g_table blind }

  let add a b = { c = Point.add a.c b.c; d = Point.add a.d b.d }

  let verify_open key t ~value ~blind =
    Point.equal t.c (commit_small key ~value ~blind)
    && Point.equal t.d (Point.Table.mul key.g_table blind)
end
