(** Pedersen commitments (computationally binding, perfectly hiding),
    including the paper's vector form with a {e shared} blind:

      y_i = C(u_i, r_i) = (g^{u_i1} w_1^{r_i}, …, g^{u_id} w_d^{r_i})

    One random scalar r_i blinds the whole vector (Eqn 2) — this is half
    of the hybrid commitment scheme; the other half (VSSS on r_i) lives in
    the [vsss] library. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type key = {
  g : Point.t;  (** value base *)
  h : Point.t;  (** blind base *)
  g_table : Point.Table.table;
  h_table : Point.Table.table;
}

(** [make_key ~g ~h] precomputes fixed-base tables for both bases. *)
val make_key : g:Point.t -> h:Point.t -> key

(** [commit key ~value ~blind] = g^value · h^blind. *)
val commit : key -> value:Scalar.t -> blind:Scalar.t -> Point.t

(** [commit_small key ~value ~blind] for native-int values (gradient
    coordinates, inner products) — uses the short-exponent fast path. *)
val commit_small : key -> value:int -> blind:Scalar.t -> Point.t

(** [verify_open key c ~value ~blind] checks c = g^value · h^blind. *)
val verify_open : key -> Point.t -> value:Scalar.t -> blind:Scalar.t -> bool

(** [commit_vec ~g_table ~w_comb ~values ~blind] is the shared-blind
    vector commitment of Eqn 2: element l is g^{values.(l)} · w_l^blind,
    w_l being base l of the comb tables [w_comb].
    @raise Invalid_argument on length mismatch. *)
val commit_vec :
  g_table:Point.Table.table -> w_comb:Point.Comb.t -> values:int array -> blind:Scalar.t -> Point.t array

(** Homomorphism: [add c1 c2] commits to the coordinate-wise sum with
    blind the sum of blinds. *)
val add : Point.t array -> Point.t array -> Point.t array

(** ElGamal-style commitment (c = g^v·h^r, d = g^r) — per-coordinate
    independent blinds; used by the RoFL baseline. *)
module Elgamal : sig
  type t = { c : Point.t; d : Point.t }

  val commit : key -> value:int -> blind:Scalar.t -> t
  val add : t -> t -> t
  val verify_open : key -> t -> value:int -> blind:Scalar.t -> bool
end
