(** Message types exchanged during one RiseFL iteration, with exact
    serialized-size accounting (the paper's "communication cost per
    client" metric counts group elements at 32 bytes each). *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

(** Round 1 (Figure 2b): commitment y_i, VSSS check string Ψ_i, and the
    encrypted shares Enc(r_ij) — one per recipient, laid out as
    {!share_layout} says. The layout has two shapes: all-to-all
    ([topo_digest = None], wire v1) and k-regular ([topo_digest = Some _],
    wire v2). *)
type commit_msg = {
  sender : int;  (** 1-based client index *)
  y : Point.t array;  (** d coordinate commitments *)
  check : Vsss.check;  (** element 0 is z_i = g^{r_i}; length = the sharing threshold *)
  enc_shares : Channel.sealed array;  (** sealed shares, in {!share_layout} order *)
  topo_digest : Bytes.t option;
      (** [None] = all-to-all (v1 bytes); [Some d] = 32-byte topology
          digest of the k-regular graph this round's shares follow. *)
}

(** {1 Share layout}

    Who receives a dealer's sealed shares, in what order and at what
    threshold. Every party derives it from the round's share topology
    and cohort alone — the dealer when it seals, a recipient when it
    opens its share, the server when it checks a commit's shape, and the
    driver's accounting and fault injection — so nothing about it is
    sent.

    {ul
    {- {b All-to-all} (no topology; wire v1): the recipients are the
       round's whole cohort, ascending, the dealer included; the
       threshold is [Params.shamir_t] and the commit carries no digest.
       With the full cohort 1..n, position j−1 is client j's share.}
    {- {b k-regular} (wire v2): the recipients are the dealer's graph
       neighbors, ascending (never the dealer itself); the threshold is
       [Topology.threshold] (a neighborhood majority) and the commit
       carries the graph's digest.}}

    Either way the share sealed at position r is evaluated at
    [recipients.(r)], the recipient's own id, so recovery interpolates
    the same polynomial whatever the layout. *)

type share_layout = {
  recipients : int array;  (** [enc_shares.(r)] is sealed to client [recipients.(r)] *)
  threshold : int;  (** the sharing threshold, i.e. the length of [check] *)
  digest : Bytes.t option;  (** the [topo_digest] the commit must carry *)
}

(** [share_layout p ~topo ~cohort ~dealer] — the layout of [dealer]'s
    commit in a round over [cohort] (sorted ids; 1..n for a fixed-set
    round) under the share graph [topo] ([None] = all-to-all).
    @raise Invalid_argument if [topo] is given and [dealer] is not in
    its cohort. *)
val share_layout :
  Params.t -> topo:Risefl_topology.Topology.t option -> cohort:int array -> dealer:int -> share_layout

(** [share_slot l id] — the position of client [id]'s sealed share, or
    [None] when [id] receives no share under [l]. *)
val share_slot : share_layout -> int -> int option

(** [fits_layout l m] — [m] carries one sealed share per recipient, a
    check string of the layout's threshold and the layout's digest. *)
val fits_layout : share_layout -> commit_msg -> bool

(** Round 2 step 1: the candidate-malicious list from share verification. *)
type flag_msg = { sender : int; suspects : int list }

(** The extra material of the cosine-defense extension (§4.6): a fresh
    commitment of w = ⟨u, v⟩ linked to the homomorphically derived one,
    its square, and the w ≥ 0 range proof. *)
type cosine_part = {
  o_w : Point.t;  (** g^w·q^{s_w} *)
  o_w2 : Point.t;  (** g^{w²}·q^{s'_w} *)
  link : Zkp.Sigma.Link.proof;
  w_square : Zkp.Sigma.Square.proof;
  w_range : Zkp.Range_proof.proof;
}

(** Round 2 step 2: the client's proof bundle π = (e*, o, o′, ρ, τ, σ, μ).
    (p is recomputed by the server from o′ and B₀ — or from o′, o_w2 and
    c_factor under the cosine predicate.) *)
type proof_msg = {
  sender : int;
  es : Point.t array;  (** e₀ … e_k *)
  os : Point.t array;  (** o₁ … o_k *)
  os' : Point.t array;  (** o′₁ … o′_k *)
  wf : Zkp.Sigma.Wf.proof;  (** ρ *)
  squares : Zkp.Sigma.Square.proof array;  (** τ, one per t *)
  cosine : cosine_part option;  (** present iff the round's predicate is cosine *)
  sigma_range : Zkp.Range_proof.proof;  (** σ *)
  mu_range : Zkp.Range_proof.proof;  (** μ *)
}

(** Round 3 (Figure 2d): aggregated share over the honest set. *)
type agg_msg = { sender : int; r_sum : Scalar.t }

(** Everything crash-recovery needs to resume a server bit-identically:
    the malicious sets (this round's C* and the session-scope bans), the
    validated commits, the last broadcast check string, and the number of
    bytes the root DRBG has drawn — a freshly created server fast-forwards
    its stream by [snap_drawn] bytes and is then byte-aligned with the
    crashed one. Written to the write-ahead log at round boundaries. *)
type server_snapshot = {
  snap_round : int;
  snap_drawn : int;  (** bytes consumed from the server's root DRBG *)
  snap_bad : bool array;  (** C* of the round in progress, index i−1 *)
  snap_banned : bool array;  (** C* carried across session rounds *)
  snap_commits : commit_msg option array;
  snap_s : Bytes.t;  (** last broadcast check string; may be empty *)
}

val point_size : int
val scalar_size : int
val commit_msg_size : commit_msg -> int
val flag_msg_size : flag_msg -> int
val proof_msg_size : proof_msg -> int
val agg_msg_size : agg_msg -> int

(** Size of the server → client broadcast in the proof round:
    s plus the k+1 precomputed h_t. *)
val broadcast_size : k:int -> int
