(** RiseFL system parameters (§4.2 of the paper).

    Agreed on by every party at initialization: client counts, the model
    dimension d, the probabilistic-check sample count k, fixed-point
    encoding, the discretization factor M, the L2 bound B and the derived
    proof bounds B₀, b_ip, b_max. *)

type t = {
  n_clients : int;  (** n *)
  max_malicious : int;  (** m, must satisfy m < n/2 *)
  d : int;  (** number of model parameters *)
  k : int;  (** number of Gaussian projections of Algorithm 2 *)
  eps_log2 : int;  (** honest-failure budget ε = 2^−eps_log2 (paper: 128) *)
  b_ip_bits : int;  (** power-of-two width of the σ range proof; each
                        projection must satisfy ⟨a_t,u⟩ ∈ [−2^(b_ip_bits−1),
                        2^(b_ip_bits−1)) *)
  b_max_bits : int;  (** power-of-two width of the μ range proof on
                         B₀ − Σ⟨a_t,u⟩² *)
  m_factor : float;  (** discretization factor M for Gaussian samples *)
  bound_b : float;  (** the L2 bound B, in {e encoded} (fixed-point) units *)
  fp : Encoding.Fixed_point.cfg;  (** float ↔ integer encoding *)
}

(** [make …] validates every constraint (m < n/2, power-of-two proof
    widths, no-overflow soundness of b_max, B₀ < 2^b_max).
    @raise Invalid_argument with a descriptive message otherwise. *)
val make :
  ?eps_log2:int ->
  ?b_ip_bits:int ->
  ?b_max_bits:int ->
  ?m_factor:float ->
  ?fp:Encoding.Fixed_point.cfg ->
  n_clients:int ->
  max_malicious:int ->
  d:int ->
  k:int ->
  bound_b:float ->
  unit ->
  t

(** γ_{k,ε} for these parameters. *)
val gamma : t -> float

(** Exact ⌈f⌉ as a bigint, for non-negative floats of any magnitude
    (53-bit-mantissa decomposition; exposed for the baselines' bound
    arithmetic). *)
val bigint_of_float_ceil : float -> Bigint.t

(** The Theorem 1 bound B₀ as an exact integer. *)
val b0 : t -> Bigint.t

(** The statistical parameters as a {!Stats.Passrate.params}. *)
val passrate_params : t -> Stats.Passrate.params

(** Shamir threshold used for the blinds: t = m + 1. *)
val shamir_t : t -> int

(** Largest |coordinate| the aggregation decoder must solve:
    n · 2^(fp.bits − 1). *)
val agg_max_abs : t -> int

(** [check_update_norm t u] — whether an encoded update is within the L2
    bound B (what an honest client must ensure before committing). *)
val check_update_norm : t -> int array -> bool

