module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Pedersen = Commitments.Pedersen
module Sigma = Zkp.Sigma
module Range_proof = Zkp.Range_proof
module Transcript = Zkp.Transcript

exception Server_misbehaving of string

type t = {
  setup : Setup.t;
  id : int;
  drbg : Prng.Drbg.t;
  mutable keys : Channel.keypair;
  mutable gen : int;  (* key generation: 0 = the enrollment key *)
  mutable directory : Point.t array;
  (* round state *)
  mutable r : Scalar.t;  (* this round's Pedersen blind *)
  mutable u : int array;  (* this round's encoded update *)
  mutable out_shares : Vsss.share array;  (* the shares we dealt, index j-1 *)
  mutable my_check : Vsss.check;
  mutable in_shares : Scalar.t option array;  (* share of r_j received from client j, index j-1 *)
}

let create setup ~id drbg =
  if id < 1 || id > setup.Setup.params.Params.n_clients then invalid_arg "Client.create: bad id";
  {
    setup;
    id;
    drbg;
    keys = Channel.gen_keypair drbg;
    gen = 0;
    directory = [||];
    r = Scalar.zero;
    u = [||];
    out_shares = [||];
    my_check = [||];
    in_shares = [||];
  }

let id t = t.id
let public_key t = t.keys.Channel.pk

let install_directory t pks =
  if Array.length pks <> t.setup.Setup.params.Params.n_clients then
    invalid_arg "Client.install_directory: wrong size";
  t.directory <- pks

let key_for t j = Channel.shared_key ~my:t.keys ~their_pk:t.directory.(j - 1)

(* --- key rotation ----------------------------------------------------

   Generation g >= 1 keys derive from a key-only fork of the client's
   root DRBG: independent of how far the sequential stream has advanced,
   so any process (the client itself, a crash-recovered twin rebuilding
   the session from the shared seed) re-derives the same key pair at any
   time. The continuity proof signs the new pk under the OUTGOING secret
   key (see {!Membership.sign_rotation}); adopting the generation is a
   separate step so a rejected rotation never desyncs honest state. *)

let keypair_at t ~gen =
  if gen < 1 then invalid_arg "Client.keypair_at: generation must be >= 1";
  Channel.gen_keypair (Prng.Drbg.fork t.drbg (Printf.sprintf "rotate/g%d" gen))

let key_generation t = t.gen

let rotation_proof t =
  let gen = t.gen + 1 in
  let next = keypair_at t ~gen in
  let nonce = Scalar.random (Prng.Drbg.fork t.drbg (Printf.sprintf "rotate/g%d/nonce" gen)) in
  Membership.sign_rotation ~id:t.id ~gen ~sk_old:t.keys.Channel.sk ~pk_old:t.keys.Channel.pk
    ~new_pk:next.Channel.pk ~nonce

let rotate_to t ~gen =
  if gen < t.gen then invalid_arg "Client.rotate_to: cannot rotate backwards";
  if gen > t.gen then begin
    t.keys <- keypair_at t ~gen;
    t.gen <- gen
  end

let share_nonce ~round ~sender ~receiver = Printf.sprintf "share/r%d/%d->%d" round sender receiver

(* the round's cohort: the whole universe when none is given *)
let cohort_of t cohort =
  Option.value cohort ~default:(Array.init t.setup.Setup.params.Params.n_clients (fun i -> i + 1))

let commit_round_unchecked ?topo ?cohort t ~round ~update =
  let p = t.setup.Setup.params in
  if Array.length update <> p.Params.d then invalid_arg "Client.commit_round: dimension mismatch";
  t.u <- Array.copy update;
  t.r <- Scalar.random t.drbg;
  let y =
    Pedersen.commit_vec ~g_table:t.setup.Setup.g_table ~w_comb:(Setup.w_comb t.setup)
      ~values:update ~blind:t.r
  in
  let l = Wire.share_layout p ~topo ~cohort:(cohort_of t cohort) ~dealer:t.id in
  let shares, check =
    Vsss.share_at t.drbg ~secret:t.r ~xs:l.Wire.recipients ~t:l.Wire.threshold ~g:t.setup.Setup.g
  in
  t.out_shares <- shares;
  t.my_check <- check;
  t.in_shares <- Array.make p.Params.n_clients None;
  let enc_shares =
    Array.map
      (fun (s : Vsss.share) ->
        let j = s.Vsss.idx in
        Channel.seal ~key:(key_for t j)
          ~nonce_seed:(share_nonce ~round ~sender:t.id ~receiver:j)
          (Scalar.to_bytes s.Vsss.value))
      shares
  in
  { Wire.sender = t.id; y; check; enc_shares; topo_digest = l.Wire.digest }

let commit_round ?topo ?cohort t ~round ~update =
  if not (Params.check_update_norm t.setup.Setup.params update) then
    invalid_arg "Client.commit_round: update exceeds the L2 bound";
  commit_round_unchecked ?topo ?cohort t ~round ~update

let receive_shares ?topo ?cohort t ~round ~msgs =
  let g = t.setup.Setup.g in
  let cohort = cohort_of t cohort in
  (* decrypt + VSSS-verify each dealer's share independently (one MSM
     per dealer), in parallel; mutate round state sequentially after. A
     dealer whose layout holds no share for us (a non-neighbor, or our
     own k-regular commit) is skipped: we could not tell a good share
     from a bad one anyway. *)
  let opened =
    Parallel.parallel_map
      (fun (m : Wire.commit_msg) ->
        let j = m.Wire.sender in
        let l = Wire.share_layout t.setup.Setup.params ~topo ~cohort ~dealer:j in
        match Wire.share_slot l t.id with
        | None -> (j, `Skip)
        | Some _ when not (Wire.fits_layout l m) -> (j, `Bad)
        | Some slot -> (
            match
              Option.bind (Channel.open_ ~key:(key_for t j) m.Wire.enc_shares.(slot)) Scalar.of_bytes_opt
            with
            | Some value when Vsss.verify ~g ~check:m.Wire.check { Vsss.idx = t.id; value } ->
                (j, `Ok value)
            | _ -> (j, `Bad)))
      msgs
  in
  let suspects = ref [] in
  Array.iter
    (fun (j, v) ->
      match v with
      | `Ok value -> t.in_shares.(j - 1) <- Some value
      | `Bad -> suspects := j :: !suspects
      | `Skip -> ())
    opened;
  ignore round;
  { Wire.sender = t.id; suspects = List.rev !suspects }

let reveal_shares t ~requests =
  let m = t.setup.Setup.params.Params.max_malicious in
  if List.length requests > m then
    raise (Server_misbehaving "server requested more than m clear shares");
  (* look the share up by evaluation point, not position: under a
     k-regular topology out_shares holds only the k neighbor shares *)
  List.map
    (fun j ->
      match Array.to_list t.out_shares |> List.find_opt (fun s -> s.Vsss.idx = j) with
      | Some s -> (j, s.Vsss.value)
      | None -> invalid_arg "Client.reveal_shares: bad index")
    requests

let accept_cleared_share t ~from ~value = t.in_shares.(from - 1) <- Some value

(* The client-side transcript for the proof bundle.  The server replays
   the identical sequence, so every absorbed value is part of the
   statement. *)
let make_transcript ~round ~client_id ~s =
  let tr = Transcript.create "risefl/proof/v1" in
  Transcript.append_int tr ~label:"round" round;
  Transcript.append_int tr ~label:"client" client_id;
  Transcript.append_bytes tr ~label:"s" s;
  tr

let try_proof_round ?(predicate = Predicate.L2) ?hs_tables ?cohort t ~round ~s ~hs =
  Predicate.validate t.setup.Setup.params predicate;
  let p = t.setup.Setup.params in
  let setup = t.setup
  and d = t.setup.Setup.params.Params.d in
  (* the shared seed binds exactly the round's active cohort: H(s,
     pk_{i1}..pk_{ic}) over the sorted cohort ids (the full directory
     when no cohort is given — the fixed-set bytes, unchanged) *)
  let seed = Sampling.seed ~s ~pks:(Array.map (fun j -> t.directory.(j - 1)) (cohort_of t cohort)) in
  let matrix = Sampling.sample_matrix ~seed ~d ~k:p.Params.k ~m_factor:p.Params.m_factor in
  (* Algorithm 3: never trust h from the server *)
  if not (Sampling.ver_crt t.drbg ~bases:setup.Setup.w ~targets:hs ~matrix) then
    raise (Server_misbehaving "h vector fails VerCrt");
  (* exact projections *)
  let v0, vs = Sampling.project matrix t.u in
  let k = p.Params.k in
  let shift = Bigint.shift_left Bigint.one (p.Params.b_ip_bits - 1) in
  let in_sigma_range =
    Array.for_all (fun v -> Bigint.compare (Bigint.abs (Bigint.of_int v)) shift < 0) vs
  in
  let sum_sq =
    Array.fold_left (fun acc v -> Bigint.add acc (Bigint.mul (Bigint.of_int v) (Bigint.of_int v))) Bigint.zero vs
  in
  (* predicate-specific budget: L2 compares against B0; cosine against
     w^2 * c_factor with w = <u, v> *)
  let budget =
    match predicate with
    | Predicate.L2 -> Some (setup.Setup.b0, None)
    | Predicate.Cosine { v; alpha } ->
        let w = Sampling.dot_exact v t.u in
        if w < 0 then None
        else begin
          let factor = Predicate.cosine_factor p ~v ~alpha in
          let cap = Bigint.mul (Bigint.mul (Bigint.of_int w) (Bigint.of_int w)) factor in
          if Bigint.bit_length cap >= p.Params.b_max_bits then None else Some (cap, Some (w, factor))
        end
  in
  match budget with
  | None -> None
  | Some (cap, cosine_data) ->
  if not (in_sigma_range && Bigint.compare sum_sq cap <= 0) then None
  else Some (
  (* commitments e_t = g^{v_t} h_t^{r}; o_t = g^{v_t} q^{s_t}; o'_t = g^{v_t^2} q^{s'_t} *)
  let mul_h i sc =
    (* hs are round-shared check bases: when the driver supplies window
       tables for them (they amortize across all clients) use those *)
    match hs_tables with
    | Some ts when Array.length ts = k + 1 -> Point.Table.mul ts.(i) sc
    | _ -> Point.mul sc hs.(i)
  in
  let es =
    Array.init (k + 1) (fun i ->
        let gv =
          if i = 0 then Point.Table.mul setup.Setup.g_table v0
          else Point.Table.mul_small setup.Setup.g_table vs.(i - 1)
        in
        Point.add gv (mul_h i t.r))
  in
  let ss = Array.init k (fun _ -> Scalar.random t.drbg) in
  let ss' = Array.init k (fun _ -> Scalar.random t.drbg) in
  let os =
    Array.init k (fun i ->
        Point.add (Point.Table.mul_small setup.Setup.g_table vs.(i)) (Point.Table.mul setup.Setup.q_table ss.(i)))
  in
  let os' =
    Array.init k (fun i ->
        let v2 = Scalar.of_bigint (Bigint.mul (Bigint.of_int vs.(i)) (Bigint.of_int vs.(i))) in
        Point.add (Point.Table.mul setup.Setup.g_table v2) (Point.Table.mul setup.Setup.q_table ss'.(i)))
  in
  let tr = make_transcript ~round ~client_id:t.id ~s in
  (* rho: well-formedness linking z = g^r, e*, o *)
  let z = Vsss.commitment_of_check t.my_check in
  let vs_scalars = Array.init (k + 1) (fun i -> if i = 0 then v0 else Scalar.of_int vs.(i - 1)) in
  let wf =
    Sigma.Wf.prove ~g_table:setup.Setup.g_table ~q_table:setup.Setup.q_table ?hs_tables t.drbg tr
      ~g:setup.Setup.g ~q:setup.Setup.q ~hs ~z ~es ~os ~r:t.r ~vs:vs_scalars ~ss
  in
  (* tau: o'_t commits the square of o_t's secret *)
  let squares =
    Array.init k (fun i ->
        Sigma.Square.prove ~g_table:setup.Setup.g_table ~q_table:setup.Setup.q_table t.drbg tr
          ~g:setup.Setup.g ~q:setup.Setup.q ~y1:os.(i) ~y2:os'.(i)
          ~x:(Scalar.of_int vs.(i)) ~s:ss.(i) ~s':ss'.(i))
  in
  (* cosine extension: commit w = <u, v>, link it to the homomorphic
     derivation from y_i, prove its square and w >= 0 *)
  let cosine, mu_value, mu_blind_head =
    match cosine_data with
    | None ->
        (* L2: mu proves B0 - sum v_t^2 >= 0 *)
        (None, Bigint.sub setup.Setup.b0 sum_sq, Scalar.zero)
    | Some (w, factor) ->
        let s_w = Scalar.random t.drbg and s'_w = Scalar.random t.drbg in
        let o_w =
          Point.add (Point.Table.mul_small setup.Setup.g_table w) (Point.Table.mul setup.Setup.q_table s_w)
        in
        let w2 = Bigint.mul (Bigint.of_int w) (Bigint.of_int w) in
        let o_w2 =
          Point.add
            (Point.Table.mul setup.Setup.g_table (Scalar.of_bigint w2))
            (Point.Table.mul setup.Setup.q_table s'_w)
        in
        let v_ref = match predicate with Predicate.Cosine { v; _ } -> v | Predicate.L2 -> assert false in
        (* W_v = prod w_l^{v_l}; C_w = g^w W_v^r is what the server derives
           from y_i *)
        let w_base = Curve25519.Msm.msm_small (Array.mapi (fun l vl -> (vl, setup.Setup.w.(l))) v_ref) in
        let c_w = Point.add (Point.Table.mul_small setup.Setup.g_table w) (Point.mul t.r w_base) in
        let z = Vsss.commitment_of_check t.my_check in
        let link =
          Sigma.Link.prove ~g_table:setup.Setup.g_table ~q_table:setup.Setup.q_table t.drbg tr
            ~g:setup.Setup.g ~h:w_base ~q:setup.Setup.q ~z ~e:c_w ~o:o_w
            ~x:(Scalar.of_int w) ~r:t.r ~s:s_w
        in
        let w_square =
          Sigma.Square.prove ~g_table:setup.Setup.g_table ~q_table:setup.Setup.q_table t.drbg tr
            ~g:setup.Setup.g ~q:setup.Setup.q ~y1:o_w ~y2:o_w2
            ~x:(Scalar.of_int w) ~s:s_w ~s':s'_w
        in
        let w_range =
          Range_proof.prove ~g_table:setup.Setup.g_table ~h_table:setup.Setup.q_table t.drbg tr
            ~gens:setup.Setup.bp_gens ~g:setup.Setup.g ~h:setup.Setup.q
            ~bits:p.Params.b_ip_bits ~values:[| Bigint.of_int w |] ~blinds:[| s_w |]
        in
        (* mu proves w^2 * factor - sum v_t^2 >= 0, with blind
           s'_w * factor - sum s'_t *)
        ( Some { Wire.o_w; o_w2; link; w_square; w_range },
          Bigint.sub (Bigint.mul w2 factor) sum_sq,
          Scalar.mul s'_w (Scalar.of_bigint factor) )
  in
  (* sigma: each v_t + 2^(b_ip-1) in [0, 2^b_ip) *)
  let sigma_values = Array.map (fun v -> Bigint.add (Bigint.of_int v) shift) vs in
  let sigma_range =
    Range_proof.prove ~g_table:setup.Setup.g_table ~h_table:setup.Setup.q_table t.drbg tr
      ~gens:setup.Setup.bp_gens ~g:setup.Setup.g ~h:setup.Setup.q
      ~bits:p.Params.b_ip_bits ~values:sigma_values ~blinds:ss
  in
  let mu_blind = Scalar.sub mu_blind_head (Array.fold_left Scalar.add Scalar.zero ss') in
  let mu_range =
    Range_proof.prove ~g_table:setup.Setup.g_table ~h_table:setup.Setup.q_table t.drbg tr
      ~gens:setup.Setup.bp_gens ~g:setup.Setup.g ~h:setup.Setup.q
      ~bits:p.Params.b_max_bits ~values:[| mu_value |] ~blinds:[| mu_blind |]
  in
  { Wire.sender = t.id; es; os; os'; wf; squares; cosine; sigma_range; mu_range })

let proof_round ?(predicate = Predicate.L2) ?hs_tables ?cohort t ~round ~s ~hs =
  match try_proof_round ~predicate ?hs_tables ?cohort t ~round ~s ~hs with
  | Some msg -> msg
  | None ->
      failwith
        "Client.proof_round: update cannot pass the probabilistic check (out-of-bound update, an \
         eps-probability event, or too-tight parameters)"

let agg_round t ~honest =
  let r_sum =
    List.fold_left
      (fun acc j ->
        match t.in_shares.(j - 1) with
        | Some v -> Scalar.add acc v
        | None -> invalid_arg (Printf.sprintf "Client.agg_round: missing share from honest client %d" j))
      Scalar.zero honest
  in
  { Wire.sender = t.id; r_sum }

(* the pairwise one-time mask of the k-regular aggregation round: both
   endpoints derive the same scalar from their ECDH shared key, keyed by
   the round and the unordered pair, so masks cancel in the sum without
   any extra communication *)
let pair_mask t ~round ~peer =
  let lo = min t.id peer and hi = max t.id peer in
  let d =
    Prng.Drbg.fork
      (Prng.Drbg.create (key_for t peer))
      (Printf.sprintf "aggmask/r%d/%d-%d" round lo hi)
  in
  Scalar.random d

let agg_round_masked t ~round ~topo ~honest =
  let r_sum =
    List.fold_left
      (fun acc j ->
        if j = t.id || not (Risefl_topology.Topology.is_neighbor topo t.id j) then acc
        else
          let mask = pair_mask t ~round ~peer:j in
          (* ε_ij = +1 for i < j, −1 for i > j: the two sides cancel *)
          if t.id < j then Scalar.add acc mask else Scalar.sub acc mask)
      t.r honest
  in
  { Wire.sender = t.id; r_sum }

let recovery_response t ~round ~topo ~dropout =
  if dropout = t.id then
    raise (Server_misbehaving "server asked this client to recover itself");
  if not (Risefl_topology.Topology.is_neighbor topo t.id dropout) then
    raise (Server_misbehaving "recovery request for a non-neighbor");
  (t.in_shares.(dropout - 1), pair_mask t ~round ~peer:dropout)
