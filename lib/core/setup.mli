(** Public cryptographic setup shared by the server and every client.

    All group elements are derived deterministically ("nothing up my
    sleeve") from a deployment label, so every party reconstructs the
    same setup without trusting anyone: the value base g, the secondary
    commitment base q, the per-coordinate bases w_1 … w_d (Eqn 2), and
    the Bulletproofs generator vectors. *)

(** The comb tables of the bases w, built on first use: read them
    through {!w_comb}. *)
type w_tables

type t = {
  params : Params.t;
  g : Curve25519.Point.t;
  q : Curve25519.Point.t;
  w : Curve25519.Point.t array;  (** length d *)
  w_tables : w_tables;
  g_table : Curve25519.Point.Table.table;
  q_table : Curve25519.Point.Table.table;
  bp_gens : Zkp.Range_proof.gens;
  b0 : Bigint.t;  (** Theorem 1 bound, precomputed *)
}

(** [create ~label params] — deterministic in [label] and [params].
    Cost is O(d + k·b_ip) group operations (generator derivation). *)
val create : label:string -> Params.t -> t

(** Length of Bulletproofs generator vectors needed by these params. *)
val bp_gen_count : Params.t -> int

(** [w_comb setup] — the fixed-base comb tables of w_1 … w_d. The first
    call builds them (about one {!Curve25519.Point.mul} per base, ~0.2 s
    at d = 1024), so [create] stays cheap; later calls return the same
    tables. Safe from any domain, including inside a {!Parallel}
    region: the build runs under a mutex. *)
val w_comb : t -> Curve25519.Point.Comb.t
