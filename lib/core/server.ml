module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Sigma = Zkp.Sigma
module Range_proof = Zkp.Range_proof

(* Result of a finished verification stream, carried to [aggregate]: the
   running Σ y_i over folded survivors, the running combined check string,
   which clients are in those sums, and each included client's compressed
   y (the spill) so a late conviction — a client folded during the stream
   but convicted before aggregation, e.g. an undecodable agg frame — can
   be subtracted exactly. *)
type stream_agg = {
  sa_round : int;
  sa_aggy : Point.t array; (* [||] if no client survived the stream *)
  sa_check : Vsss.check option;
  sa_included : bool array; (* index i-1: folded into sa_aggy/sa_check *)
  sa_spill : Bytes.t option array; (* compressed y of included clients *)
}

type stream_stats = { folded : int; evicted : int; flushes : int; peak_batch : int }

type t = {
  setup : Setup.t;
  drbg : Prng.Drbg.t;
  dlog : Curve25519.Dlog.t Lazy.t;
  mutable directory : Point.t array;
  mutable commits : Wire.commit_msg option array;
  mutable bad : bool array; (* C*, index i-1 *)
  mutable banned : bool array; (* C* carried across session rounds *)
  mutable active : bool array;
      (* this round's cohort, index i-1. An inactive client is absent,
         not guilty: it owes no frames, appears in no honest list, and
         the shared seed binds only the active directory entries. The
         fixed-set path keeps every client active (all-true). *)
  mutable matrix : Sampling.matrix option;
  mutable s_value : Bytes.t;
  mutable hs : Point.t array;
  mutable round : int;
  (* bytes consumed from [drbg]: the DRBG "position" a snapshot captures.
     All root-stream draws must go through [draw] below so a restored
     server can fast-forward to the exact same stream offset. *)
  mutable drawn : int;
  mutable stream_agg : stream_agg option; (* set by stream_finish, round-scoped *)
  mutable stream_last : stream_stats option; (* last finished stream, for reporting *)
  mutable topo : Risefl_topology.Topology.t option;
      (* this round's share topology; None = all-to-all. Never logged or
         snapshotted: it is a pure function of (seed, round, cohort), so
         WAL replay re-derives it through [begin_round]. *)
}

let create setup drbg =
  let p = setup.Setup.params in
  {
    setup;
    drbg;
    dlog =
      lazy
        (Group_cache.dlog ~base:setup.Setup.g
           ~max_abs:(Params.agg_max_abs p) ());
    directory = [||];
    commits = Array.make p.Params.n_clients None;
    bad = Array.make p.Params.n_clients false;
    banned = Array.make p.Params.n_clients false;
    active = Array.make p.Params.n_clients true;
    matrix = None;
    s_value = Bytes.empty;
    hs = [||];
    round = 0;
    drawn = 0;
    stream_agg = None;
    stream_last = None;
    topo = None;
  }

let draw t n =
  t.drawn <- t.drawn + n;
  Prng.Drbg.bytes t.drbg n

let install_directory t pks = t.directory <- pks

let n_of t = t.setup.Setup.params.Params.n_clients
let m_of t = t.setup.Setup.params.Params.max_malicious

let malicious t =
  let out = ref [] in
  Array.iteri (fun i b -> if b then out := (i + 1) :: !out) t.bad;
  List.rev !out

let honest t =
  let out = ref [] in
  Array.iteri (fun i b -> if (not b) && t.active.(i) then out := (i + 1) :: !out) t.bad;
  List.rev !out

let mark t i reason =
  ignore reason;
  t.bad.(i - 1) <- true

(* the transport layer's rule: an undecodable frame costs the sender its
   honesty bit, never the server its round *)
let mark_decode_failure t i =
  if i >= 1 && i <= n_of t then mark t i "undecodable frame"

(* a rejected key rotation is an identity-level offence: whoever sent it
   could not prove continuity with the enrolled key *)
let convict t i ~reason = if i >= 1 && i <= n_of t then mark t i reason

(* [set_active t cohort] — install the round's cohort before [restore]
   or [begin_round]-equivalent replay paths need it. [begin_round
   ?cohort] calls this itself on the normal path. *)
let set_active t cohort =
  let act = Array.make (n_of t) false in
  Array.iter (fun i -> if i >= 1 && i <= n_of t then act.(i - 1) <- true) cohort;
  t.active <- act

let is_active t i = i >= 1 && i <= n_of t && t.active.(i - 1)

(* the directory restricted to the active cohort, in id order: the pk
   list the shared seed H(s, pk..) binds this round *)
let active_pks t =
  Array.of_list (List.filteri (fun i _ -> t.active.(i)) (Array.to_list t.directory))

(* the server's validated view of this round's commits (structurally
   invalid ones have been nulled out) — what it forwards to clients *)
let round_commits t = Array.copy t.commits

(* session-scope bans: C* members of completed rounds start the next
   round already malicious (the session loop carries C* forward) *)
let ban t i = if i >= 1 && i <= n_of t then t.banned.(i - 1) <- true

let banned t =
  let out = ref [] in
  Array.iteri (fun i b -> if b then out := (i + 1) :: !out) t.banned;
  List.rev !out

let begin_round ?topo ?cohort t ~round ~commits =
  if Array.length commits <> n_of t then invalid_arg "Server.begin_round: wrong size";
  let p = t.setup.Setup.params in
  let cohort = Option.value cohort ~default:(Array.init (n_of t) (fun i -> i + 1)) in
  t.round <- round;
  t.bad <- Array.copy t.banned;
  t.stream_agg <- None;
  t.topo <- topo;
  set_active t cohort;
  t.commits <- Array.copy commits;
  (* absence is only an offence for cohort members; a commit from outside
     the cohort (a stale-epoch straggler) is dropped, not convicted. A
     cohort member's commit must have the shape of its dealer's share
     layout (Wire.share_layout): the two topologies accept disjoint
     shapes, so a client on the wrong branch is malformed, not
     ambiguous. *)
  Array.iteri
    (fun i c ->
      match c with
      | _ when not t.active.(i) -> t.commits.(i) <- None
      | None -> mark t (i + 1) "no commit"
      | Some (m : Wire.commit_msg) ->
          if
            m.Wire.sender <> i + 1
            || Array.length m.Wire.y <> p.Params.d
            || not (Wire.fits_layout (Wire.share_layout p ~topo ~cohort ~dealer:(i + 1)) m)
          then begin
            mark t (i + 1) "malformed commit";
            t.commits.(i) <- None
          end)
    commits

let process_flags t ~flags ~reveal =
  let n = n_of t and m = m_of t in
  (* flagged_by.(i-1) = list of clients flagging i *)
  let flagged_by = Array.make n [] in
  Array.iteri
    (fun j f ->
      let j = j + 1 in
      match f with
      | _ when not t.active.(j - 1) -> ()
      | None -> mark t j "no flag message"
      | Some (fm : Wire.flag_msg) ->
          let suspects = List.sort_uniq compare fm.Wire.suspects in
          (* rule 1a: flagging more than m clients is self-incriminating *)
          if List.length suspects > m then mark t j "flagged more than m clients"
          else if
            (* under a k-regular topology a client holds shares only from
               its graph neighbors, so flagging a non-neighbor dealer is
               equally self-incriminating — the flagger cannot have
               verified a share it never received, and the dealer could
               never answer a rule-2 reveal for it *)
            match t.topo with
            | Some tp ->
                List.exists
                  (fun i ->
                    i >= 1 && i <= n && not (Risefl_topology.Topology.is_neighbor tp j i))
                  suspects
            | None -> false
          then mark t j "flagged a non-neighbor dealer"
          else
            List.iter
              (fun i -> if i >= 1 && i <= n then flagged_by.(i - 1) <- j :: flagged_by.(i - 1))
              suspects)
    flags;
  (* rule 1b: flagged by more than m clients (an absent client cannot be
     convicted in absentia — flags against non-cohort ids are noise) *)
  Array.iteri
    (fun i fl ->
      if t.active.(i) && List.length fl > m then mark t (i + 1) "flagged by more than m clients")
    flagged_by;
  (* rule 2: flagged by 1..m clients -> request clear shares from dealer *)
  let cleared = ref [] in
  Array.iteri
    (fun i fl ->
      let dealer = i + 1 in
      if t.active.(i) && (not t.bad.(i)) && fl <> [] && List.length fl <= m then begin
        match reveal dealer fl with
        | None -> mark t dealer "refused rule-2 request"
        | Some pairs ->
            let ok =
              List.for_all
                (fun (j, value) ->
                  match t.commits.(i) with
                  | None -> false
                  | Some c ->
                      Vsss.verify ~g:t.setup.Setup.g ~check:c.Wire.check { Vsss.idx = j; value })
                pairs
              && List.length pairs = List.length fl
            in
            if ok then
              List.iter (fun (j, value) -> cleared := (j, dealer, value) :: !cleared) pairs
            else mark t dealer "rule-2 share failed verification"
      end)
    flagged_by;
  List.rev !cleared

let prepare_check t =
  let p = t.setup.Setup.params in
  let s = draw t 32 in
  (* the shared seed binds exactly this round's cohort: with everyone
     active this is the full directory, byte-identical to the fixed-set
     derivation *)
  let seed = Sampling.seed ~s ~pks:(active_pks t) in
  let matrix = Sampling.sample_matrix ~seed ~d:p.Params.d ~k:p.Params.k ~m_factor:p.Params.m_factor in
  t.matrix <- Some matrix;
  t.s_value <- s;
  t.hs <- Sampling.compute_h t.setup matrix;
  (s, t.hs)

let shift_point t =
  (* g^{2^(b_ip-1)} for re-basing the sigma range commitments *)
  let p = t.setup.Setup.params in
  let e = Scalar.of_bigint (Bigint.shift_left Bigint.one (p.Params.b_ip_bits - 1)) in
  Point.Table.mul t.setup.Setup.g_table e

(* predicate-dependent context precomputed once per round *)
type predicate_ctx =
  | Ctx_l2
  | Ctx_cosine of { v : int array; w_base : Point.t; factor : Bigint.t }

let make_predicate_ctx t = function
  | Predicate.L2 -> Ctx_l2
  | Predicate.Cosine { v; alpha } ->
      let w_base =
        Curve25519.Msm.msm_small (Array.mapi (fun l vl -> (vl, t.setup.Setup.w.(l))) v)
      in
      Ctx_cosine { v; w_base; factor = Predicate.cosine_factor t.setup.Setup.params ~v ~alpha }

let verify_one t ~round ~ctx ~drbg shift_pt (msg : Wire.proof_msg) =
  let p = t.setup.Setup.params in
  let setup = t.setup in
  let k = p.Params.k in
  let i = msg.Wire.sender in
  let matrix = match t.matrix with Some m -> m | None -> failwith "Server: prepare_check first" in
  match t.commits.(i - 1) with
  | None -> false
  | Some commit ->
      Array.length msg.Wire.es = k + 1
      && Array.length msg.Wire.os = k
      && Array.length msg.Wire.os' = k
      && Array.length msg.Wire.squares = k
      (* e* consistency: e_t = prod_l y_il^{a_tl}, batch-verified *)
      && Sampling.ver_crt drbg ~bases:commit.Wire.y ~targets:msg.Wire.es ~matrix
      &&
      let tr = Client.make_transcript ~round ~client_id:i ~s:t.s_value in
      let z = Vsss.commitment_of_check commit.Wire.check in
      Sigma.Wf.verify tr ~g:setup.Setup.g ~q:setup.Setup.q ~hs:t.hs ~z ~es:msg.Wire.es ~os:msg.Wire.os
        msg.Wire.wf
      && (let ok = ref true in
          Array.iteri
            (fun ti sq ->
              if !ok then
                ok :=
                  Sigma.Square.verify tr ~g:setup.Setup.g ~q:setup.Setup.q ~y1:msg.Wire.os.(ti)
                    ~y2:msg.Wire.os'.(ti) sq)
            msg.Wire.squares;
          !ok)
      && (match (ctx, msg.Wire.cosine) with
         | Ctx_l2, None -> true
         | Ctx_l2, Some _ | Ctx_cosine _, None -> false (* predicate mismatch *)
         | Ctx_cosine { v; w_base; _ }, Some cos ->
             (* C_w = prod_l y_il^{v_l} is the homomorphic commitment of
                w = <u, v> under base w_base for the blind *)
             let c_w =
               Curve25519.Msm.msm_small (Array.mapi (fun l vl -> (vl, commit.Wire.y.(l))) v)
             in
             Sigma.Link.verify tr ~g:setup.Setup.g ~h:w_base ~q:setup.Setup.q ~z ~e:c_w
               ~o:cos.Wire.o_w cos.Wire.link
             && Sigma.Square.verify tr ~g:setup.Setup.g ~q:setup.Setup.q ~y1:cos.Wire.o_w
                  ~y2:cos.Wire.o_w2 cos.Wire.w_square
             && Range_proof.verify tr ~gens:setup.Setup.bp_gens ~g:setup.Setup.g ~h:setup.Setup.q
                  ~bits:p.Params.b_ip_bits ~commitments:[| cos.Wire.o_w |] cos.Wire.w_range)
      && (let sigma_commitments = Array.map (fun o -> Point.add o shift_pt) msg.Wire.os in
          Range_proof.verify tr ~gens:setup.Setup.bp_gens ~g:setup.Setup.g ~h:setup.Setup.q
            ~bits:p.Params.b_ip_bits ~commitments:sigma_commitments msg.Wire.sigma_range)
      &&
      (* the mu budget: g^{B0} for L2, o_w2^{c_factor} for cosine *)
      let budget_commit =
        match (ctx, msg.Wire.cosine) with
        | Ctx_l2, _ -> Point.Table.mul setup.Setup.g_table (Scalar.of_bigint setup.Setup.b0)
        | Ctx_cosine { factor; _ }, Some cos -> Point.mul (Scalar.of_bigint factor) cos.Wire.o_w2
        | Ctx_cosine _, None -> assert false (* rejected above *)
      in
      let p_commit =
        Point.sub budget_commit (Array.fold_left Point.add Point.identity msg.Wire.os')
      in
      Range_proof.verify tr ~gens:setup.Setup.bp_gens ~g:setup.Setup.g ~h:setup.Setup.q
        ~bits:p.Params.b_max_bits ~commitments:[| p_commit |] msg.Wire.mu_range

(* Batched counterpart of [verify_one]: instead of evaluating each
   verifier equation, folds all of them — VerCrt, Wf's 2k+2 equations,
   the k Square proofs, the cosine branch, and both range proofs — into
   one term accumulator as rho_j * (LHS - RHS), one independent rho_j per
   equation. Returns the accumulated terms, or None on any structural
   failure (the cases where the naive path rejects without an equation
   ever being evaluated: missing commit, bad shapes, predicate mismatch,
   proof-shape mismatch inside a sub-protocol).

   The per-equation coefficients come from a DRBG forked by (round,
   client), with one extra leading draw folded into every rho as the
   client's outer batching coefficient sigma_i: the cross-client sum
   Σ_i sigma_i · (client i's accumulated sum) is then itself an RLC, and
   because each client's stream depends only on (round, client id) the
   terms — and hence every verdict — are identical for any job count or
   scheduling order. Transcript replay and the VerCrt fork draw order are
   byte-identical to the naive path. *)
let accumulate_one t ~round ~ctx ~drbg ~rlc shift_pt (msg : Wire.proof_msg) =
  let p = t.setup.Setup.params in
  let setup = t.setup in
  let k = p.Params.k in
  let i = msg.Wire.sender in
  let matrix = match t.matrix with Some m -> m | None -> failwith "Server: prepare_check first" in
  match t.commits.(i - 1) with
  | None -> None
  | Some commit ->
      if
        Array.length msg.Wire.es <> k + 1
        || Array.length msg.Wire.os <> k
        || Array.length msg.Wire.os' <> k
        || Array.length msg.Wire.squares <> k
      then None
      else begin
        let acc = Curve25519.Msm.Acc.create ~coalesce:[| setup.Setup.g; setup.Setup.q |] () in
        let push s pt = Curve25519.Msm.Acc.push acc s pt in
        let gen = Range_proof.gen_vector setup.Setup.bp_gens in
        let outer = Scalar.random rlc in
        let rho () = Scalar.mul outer (Scalar.random rlc) in
        let ok =
          Sampling.ver_crt_acc drbg ~rho:(rho ()) ~push ~bases:commit.Wire.y ~targets:msg.Wire.es
            ~matrix
          &&
          let tr = Client.make_transcript ~round ~client_id:i ~s:t.s_value in
          let z = Vsss.commitment_of_check commit.Wire.check in
          Sigma.Wf.accumulate ~rho ~push tr ~g:setup.Setup.g ~q:setup.Setup.q ~hs:t.hs ~z
            ~es:msg.Wire.es ~os:msg.Wire.os msg.Wire.wf
          && (let ok = ref true in
              Array.iteri
                (fun ti sq ->
                  if !ok then
                    ok :=
                      Sigma.Square.accumulate ~rho ~push tr ~g:setup.Setup.g ~q:setup.Setup.q
                        ~y1:msg.Wire.os.(ti) ~y2:msg.Wire.os'.(ti) sq)
                msg.Wire.squares;
              !ok)
          && (match (ctx, msg.Wire.cosine) with
             | Ctx_l2, None -> true
             | Ctx_l2, Some _ | Ctx_cosine _, None -> false (* predicate mismatch *)
             | Ctx_cosine { v; w_base; _ }, Some cos ->
                 let c_w =
                   Curve25519.Msm.msm_small (Array.mapi (fun l vl -> (vl, commit.Wire.y.(l))) v)
                 in
                 Sigma.Link.accumulate ~rho ~push tr ~g:setup.Setup.g ~h:w_base ~q:setup.Setup.q ~z
                   ~e:c_w ~o:cos.Wire.o_w cos.Wire.link
                 && Sigma.Square.accumulate ~rho ~push tr ~g:setup.Setup.g ~q:setup.Setup.q
                      ~y1:cos.Wire.o_w ~y2:cos.Wire.o_w2 cos.Wire.w_square
                 && Range_proof.accumulate ~rho ~push ~gen tr ~gens:setup.Setup.bp_gens
                      ~g:setup.Setup.g ~h:setup.Setup.q ~bits:p.Params.b_ip_bits ~commitments:[| cos.Wire.o_w |]
                      cos.Wire.w_range)
          && (let sigma_commitments = Array.map (fun o -> Point.add o shift_pt) msg.Wire.os in
              Range_proof.accumulate ~rho ~push ~gen tr ~gens:setup.Setup.bp_gens ~g:setup.Setup.g
                ~h:setup.Setup.q ~bits:p.Params.b_ip_bits ~commitments:sigma_commitments
                msg.Wire.sigma_range)
          &&
          let budget_commit =
            match (ctx, msg.Wire.cosine) with
            | Ctx_l2, _ -> Point.Table.mul setup.Setup.g_table (Scalar.of_bigint setup.Setup.b0)
            | Ctx_cosine { factor; _ }, Some cos -> Point.mul (Scalar.of_bigint factor) cos.Wire.o_w2
            | Ctx_cosine _, None -> assert false (* rejected above *)
          in
          let p_commit =
            Point.sub budget_commit (Array.fold_left Point.add Point.identity msg.Wire.os')
          in
          Range_proof.accumulate ~rho ~push ~gen tr ~gens:setup.Setup.bp_gens ~g:setup.Setup.g
            ~h:setup.Setup.q ~bits:p.Params.b_max_bits ~commitments:[| p_commit |] msg.Wire.mu_range
        in
        if ok then Some (Curve25519.Msm.Acc.terms acc, gen) else None
      end

(* The sum of a set of blocks, each a client's (terms, gen) from
   [accumulate_one]: the terms, wire points among them, on Msm.msm, and
   the blocks' generator coefficients summed per base and run once on
   the generators' fixed-base tables.  Those bases lie in the prime-order
   subgroup, so this is the group element Msm.msm gives over every block's
   terms with each generator coefficient as a term of its own; wire
   points, which may carry a small-order component, are only ever
   multiplied by their own scalars. *)
let block_sum ?jobs tables blocks =
  let gen = Array.make (Curve25519.Msm.Fixed.length tables) Scalar.zero in
  Array.iter (fun (_, g) -> Array.iteri (fun l s -> gen.(l) <- Scalar.add gen.(l) s) g) blocks;
  let fixed = ref [] in
  for l = Array.length gen - 1 downto 0 do
    if not (Scalar.is_zero gen.(l)) then fixed := (gen.(l), l) :: !fixed
  done;
  Point.add
    (Curve25519.Msm.msm ?jobs (Array.concat (Array.to_list (Array.map fst blocks))))
    (Curve25519.Msm.Fixed.msm tables (Array.of_list !fixed))

(* Find the clients whose blocks make [total] nonzero, recursively
   splitting the candidate list. The right half's sum is derived by
   subtraction (total - left), so each tree level costs one block sum over
   half the blocks instead of two. Invariant: [total] = the block sum of
   [cands] and is not the identity. *)
let rec bisect_failures ?jobs tables cands total =
  let ncands = Array.length cands in
  if ncands = 1 then [ fst cands.(0) ]
  else begin
    let mid = ncands / 2 in
    let left = Array.sub cands 0 mid and right = Array.sub cands mid (ncands - mid) in
    let left_sum = block_sum ?jobs tables (Array.map snd left) in
    let right_sum = Point.sub total left_sum in
    (if Point.is_identity left_sum then [] else bisect_failures ?jobs tables left left_sum)
    @ if Point.is_identity right_sum then [] else bisect_failures ?jobs tables right right_sum
  end

(* Naive reference path: every equation evaluated directly, per-client in
   parallel — the differential-testing oracle for the batched pipeline
   below. Each client gets a DRBG forked from the server key by (round,
   id) alone, so the VerCrt challenge randomness — and with it the
   accept/reject outcome — is identical whatever the job count or
   execution order. Verdicts are collected first and C* is updated
   sequentially afterwards. *)
let verify_proofs_naive ?(predicate = Predicate.L2) ?jobs t ~round ~proofs =
  if Array.length proofs <> n_of t then invalid_arg "Server.verify_proofs_naive: wrong size";
  Predicate.validate t.setup.Setup.params predicate;
  let ctx = make_predicate_ctx t predicate in
  let shift_pt = shift_point t in
  let verdicts =
    Parallel.parallel_mapi ?jobs
      (fun idx pr ->
        let i = idx + 1 in
        if t.bad.(idx) || not t.active.(idx) then None
        else
          match pr with
          | None -> Some "no proof"
          | Some (msg : Wire.proof_msg) ->
              if msg.Wire.sender <> i then Some "proof sender mismatch"
              else begin
                let drbg = Prng.Drbg.fork t.drbg (Printf.sprintf "vercrt/r%d/c%d" round i) in
                if verify_one t ~round ~ctx ~drbg shift_pt msg then None else Some "proof failed"
              end)
      proofs
  in
  Array.iteri
    (fun idx v -> match v with Some reason -> mark t (idx + 1) reason | None -> ())
    verdicts

(* --- streaming verification pipeline --- *)

type stream_cfg = { shards : int; batch : int }

let stream_cfg ?(shards = 1) ?(batch = 64) () =
  if shards < 1 then invalid_arg "Server.stream_cfg: shards must be >= 1";
  if batch < 1 then invalid_arg "Server.stream_cfg: batch must be >= 1";
  { shards; batch }

(* One shard: a buffered batch plus partial aggregate and partial
   combined check over the client subset [(i-1) mod shards]. *)
type stream_shard = {
  mutable sh_batch : (int * Wire.proof_msg) list; (* (sender, msg), newest first *)
  mutable sh_batch_n : int;
  mutable sh_aggy : Point.t array; (* [||] until the first survivor *)
  mutable sh_check : Vsss.check option;
}

type stream = {
  sv : t;
  sround : int;
  sctx : predicate_ctx;
  sshift : Point.t;
  sjobs : int option;
  scfg : stream_cfg;
  sshards : stream_shard array;
  sfed : bool array; (* a frame was accepted for this client (first wins) *)
  sincluded : bool array; (* folded into a shard aggregate *)
  sspill : Bytes.t option array;
  mutable sfolded : int;
  mutable sevicted : int;
  mutable sflushes : int;
  mutable speak : int;
  mutable selapsed : float;
  mutable sfinished : bool;
}

let c_stream_folded = Telemetry.Counter.make "stream.folded"
let c_stream_evicted = Telemetry.Counter.make "stream.evicted"
let c_stream_flushes = Telemetry.Counter.make "stream.flushes"
let g_stream_peak_batch = Telemetry.Gauge.make "stream.peak_batch"
let g_heap_peak = Telemetry.Gauge.make "mem.heap_words.peak"

let stream_begin ?(predicate = Predicate.L2) ?jobs t ~round ~cfg =
  Predicate.validate t.setup.Setup.params predicate;
  let n = n_of t in
  t.stream_agg <- None;
  {
    sv = t;
    sround = round;
    sctx = make_predicate_ctx t predicate;
    sshift = shift_point t;
    sjobs = jobs;
    scfg = cfg;
    sshards =
      Array.init cfg.shards (fun _ ->
          {
            sh_batch = [];
            sh_batch_n = 0;
            sh_aggy = [||];
            sh_check = None;
          });
    sfed = Array.make n false;
    sincluded = Array.make n false;
    sspill = Array.make n None;
    sfolded = 0;
    sevicted = 0;
    sflushes = 0;
    speak = 0;
    selapsed = 0.0;
    sfinished = false;
  }

(* compact per-client residual: one 32-byte compressed encoding per
   coordinate, ~10x smaller than the decoded extended-coordinate points it
   replaces; only ever decoded again for a late conviction *)
let spill_encode y =
  let out = Bytes.create (32 * Array.length y) in
  Array.iteri (fun l b -> Bytes.blit b 0 out (32 * l) 32) (Point.compress_batch y);
  out

let spill_decode bytes =
  Array.init
    (Bytes.length bytes / 32)
    (fun l ->
      match Point.decompress_unchecked (Bytes.sub bytes (32 * l) 32) with
      | Some p -> p
      | None -> assert false (* we compressed a valid point ourselves *))

(* Fold one shard's buffered batch: accumulate each client's equations in
   parallel (pure scalar work), judge the whole batch by one block sum (an
   MSM over its concatenated terms plus one table MSM over its summed
   generator coefficients), and on a non-identity sum bisect the blocks —
   while they are still resident — for exact per-client blame. Honest
   blocks sum to the identity individually, so any batch of complete
   blocks is judged independently of arrival order or batch boundaries,
   and nothing carries from one batch to the next: the survivors of a
   failed batch are exactly the blocks in identity-sum halves of the
   bisection. Only exact group arithmetic may judge a batch: wire points
   are not subgroup-checked, so a corrupted frame can carry a small-order
   component T, and identities such as (ℓ−s)·P = −s·P fail for it.
   Survivors then fold their y into the shard's running aggregate and
   their check string into the shard's running combined check, after
   which their decoded material is evicted (y spilled compressed). *)
let flush_shard st sh =
  if sh.sh_batch_n > 0 then begin
    let t = st.sv in
    let batch = Array.of_list (List.rev sh.sh_batch) in
    let bn = sh.sh_batch_n in
    sh.sh_batch <- [];
    sh.sh_batch_n <- 0;
    if bn > st.speak then st.speak <- bn;
    Telemetry.Gauge.observe g_stream_peak_batch bn;
    st.sflushes <- st.sflushes + 1;
    Telemetry.Counter.incr c_stream_flushes;
    (* forced here, not inside the parallel map: a standalone server
       builds them at its first verify *)
    let tables = Range_proof.tables t.setup.Setup.bp_gens in
    (* per-client forks by (round, id) alone, as in the naive path, so
       verdicts cannot depend on arrival order, batching or job count *)
    let checks =
      Parallel.parallel_map ?jobs:st.sjobs
        (fun (sender, (msg : Wire.proof_msg)) ->
          if msg.Wire.sender <> sender then Error "proof sender mismatch"
          else begin
            let drbg = Prng.Drbg.fork t.drbg (Printf.sprintf "vercrt/r%d/c%d" st.sround sender) in
            let rlc = Prng.Drbg.fork t.drbg (Printf.sprintf "rlc/r%d/c%d" st.sround sender) in
            match accumulate_one t ~round:st.sround ~ctx:st.sctx ~drbg ~rlc st.sshift msg with
            | None -> Error "proof failed"
            | Some block -> Ok block
          end)
        batch
    in
    let cands = ref [] in
    Array.iteri
      (fun bi r ->
        let sender, _ = batch.(bi) in
        match r with
        | Error reason -> mark t sender reason
        | Ok block -> cands := (sender - 1, block) :: !cands)
      checks;
    let cands = Array.of_list (List.rev !cands) in
    st.sfolded <- st.sfolded + Array.length cands;
    Telemetry.Counter.add c_stream_folded (Array.length cands);
    if Array.length cands > 0 then begin
      let total = block_sum ?jobs:st.sjobs tables (Array.map snd cands) in
      if not (Point.is_identity total) then
        List.iter
          (fun idx -> mark t (idx + 1) "proof failed")
          (bisect_failures ?jobs:st.sjobs tables cands total)
    end;
    (* survivors: fold aggregate contribution, then evict *)
    Array.iter
      (fun (idx, _) ->
        if not t.bad.(idx) then begin
          match t.commits.(idx) with
          | Some c when Array.length c.Wire.y > 0 ->
              if Array.length sh.sh_aggy = 0 then sh.sh_aggy <- Array.copy c.Wire.y
              else
                Array.iteri (fun l y -> sh.sh_aggy.(l) <- Point.add sh.sh_aggy.(l) y) c.Wire.y;
              sh.sh_check <-
                (match sh.sh_check with
                | None -> Some c.Wire.check
                | Some a -> Some (Vsss.add_checks a c.Wire.check));
              st.sincluded.(idx) <- true;
              st.sspill.(idx) <- Some (spill_encode c.Wire.y)
          | _ -> ()
        end)
      cands;
    (* evict every batch member's decoded bulk: survivors are summarized
       above (y retrievable from the spill), convicted clients are out of
       every later computation *)
    Array.iter
      (fun (sender, _) ->
        match t.commits.(sender - 1) with
        | Some c when Array.length c.Wire.y > 0 || Array.length c.Wire.enc_shares > 0 ->
            t.commits.(sender - 1) <- Some { c with Wire.y = [||]; enc_shares = [||] };
            st.sevicted <- st.sevicted + 1;
            Telemetry.Counter.incr c_stream_evicted
        | _ -> ())
      batch;
    Telemetry.Gauge.observe g_heap_peak (Telemetry.heap_words ())
  end

let stream_feed st ~sender msg =
  if st.sfinished then invalid_arg "Server.stream_feed: stream already finished";
  let t = st.sv in
  if sender >= 1 && sender <= n_of t && not st.sfed.(sender - 1) then begin
    st.sfed.(sender - 1) <- true;
    if (not t.bad.(sender - 1)) && t.active.(sender - 1) then begin
      let sh = st.sshards.((sender - 1) mod st.scfg.shards) in
      sh.sh_batch <- (sender, msg) :: sh.sh_batch;
      sh.sh_batch_n <- sh.sh_batch_n + 1;
      if sh.sh_batch_n >= st.scfg.batch then begin
        let (), dt = Telemetry.Clock.time (fun () -> flush_shard st sh) in
        st.selapsed <- st.selapsed +. dt
      end
    end
  end

let stream_finish st =
  if not st.sfinished then begin
    st.sfinished <- true;
    let t = st.sv in
    let (), dt =
      Telemetry.Clock.time (fun () ->
          (* drain the partial batches, in shard order *)
          Array.iter (fun sh -> flush_shard st sh) st.sshards;
          (* clients that never produced an accepted frame *)
          Array.iteri
            (fun idx fed ->
              if (not fed) && (not t.bad.(idx)) && t.active.(idx) then
                mark t (idx + 1) "no proof")
            st.sfed;
          (* deterministic merge of the shards' running sums, in
             ascending shard order *)
          let aggy = ref [||] and check = ref None in
          Array.iter
            (fun sh ->
              if Array.length sh.sh_aggy > 0 then
                if Array.length !aggy = 0 then aggy := sh.sh_aggy
                else Array.iteri (fun l y -> !aggy.(l) <- Point.add !aggy.(l) y) sh.sh_aggy;
              match sh.sh_check with
              | None -> ()
              | Some c ->
                  check := Some (match !check with None -> c | Some a -> Vsss.add_checks a c))
            st.sshards;
          t.stream_agg <-
            Some
              {
                sa_round = st.sround;
                sa_aggy = !aggy;
                sa_check = !check;
                sa_included = st.sincluded;
                sa_spill = st.sspill;
              };
          t.stream_last <-
            Some
              {
                folded = st.sfolded;
                evicted = st.sevicted;
                flushes = st.sflushes;
                peak_batch = st.speak;
              })
    in
    st.selapsed <- st.selapsed +. dt
  end

let stream_elapsed_s st = st.selapsed
let stream_stats t = t.stream_last

(* The whole proof stage as one batch: a single shard whose batch holds
   every present proof, i.e. one block sum over the round's blocks. *)
let verify_proofs ?predicate ?jobs t ~round ~proofs =
  if Array.length proofs <> n_of t then invalid_arg "Server.verify_proofs: wrong size";
  let st = stream_begin ?predicate ?jobs t ~round ~cfg:(stream_cfg ~batch:(n_of t) ()) in
  Array.iteri (fun idx pr -> Option.iter (stream_feed st ~sender:(idx + 1)) pr) proofs;
  stream_finish st

(* --- crash-recovery snapshots --- *)

let snapshot t =
  {
    Wire.snap_round = t.round;
    snap_drawn = t.drawn;
    snap_bad = Array.copy t.bad;
    snap_banned = Array.copy t.banned;
    snap_commits = Array.copy t.commits;
    snap_s = Bytes.copy t.s_value;
  }

let restore t (s : Wire.server_snapshot) =
  if Array.length s.Wire.snap_bad <> n_of t || Array.length s.Wire.snap_commits <> n_of t then
    invalid_arg "Server.restore: snapshot for a different parameter set";
  if t.drawn > s.Wire.snap_drawn then
    invalid_arg "Server.restore: DRBG already past the snapshot position";
  (* fast-forward the root stream: the discarded bytes are exactly the
     check strings the crashed server drew before the snapshot, so after
     this every future draw is bit-identical to the uncrashed run *)
  if s.Wire.snap_drawn > t.drawn then ignore (draw t (s.Wire.snap_drawn - t.drawn));
  t.round <- s.Wire.snap_round;
  t.bad <- Array.copy s.Wire.snap_bad;
  t.banned <- Array.copy s.Wire.snap_banned;
  t.commits <- Array.copy s.Wire.snap_commits;
  t.s_value <- Bytes.copy s.Wire.snap_s;
  if Bytes.length t.s_value > 0 then begin
    (* re-derive the sampling matrix and check bases from the snapshotted
       s (they are a pure function of s and the directory) *)
    let p = t.setup.Setup.params in
    let seed = Sampling.seed ~s:t.s_value ~pks:(active_pks t) in
    let matrix =
      Sampling.sample_matrix ~seed ~d:p.Params.d ~k:p.Params.k ~m_factor:p.Params.m_factor
    in
    t.matrix <- Some matrix;
    t.hs <- Sampling.compute_h t.setup matrix
  end
  else begin
    t.matrix <- None;
    t.hs <- [||]
  end

type agg_error =
  | Insufficient_quorum of { valid : int; needed : int }
  | No_check_string
  | Coordinate_out_of_range of int
  | Aggregate_mismatch

let agg_error_to_string = function
  | Insufficient_quorum { valid; needed } ->
      Printf.sprintf "insufficient quorum: %d valid aggregated shares (< t = %d)" valid needed
  | No_check_string -> "no combined check string (no honest commit survived)"
  | Coordinate_out_of_range l -> Printf.sprintf "coordinate %d out of BSGS decoding range" l
  | Aggregate_mismatch -> "recovered blind fails the combined commitment check (g^R <> prod z_i)"

(* take exactly [n] elements for interpolation *)
let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl

(* Shared decode tail: peel the recovered blind r from the per-coordinate
   products [prod l] = Π_{i∈H} y_il and BSGS-decode every coordinate. *)
let decode_with_r t ~prod ~r =
  let neg_r = Scalar.neg r in
  let solver = Lazy.force t.dlog in
  (* O(d · (n + log ℓ)) point work over coordinate chunks: the blind
     peel (−R)·w_l runs on the setup's comb tables *)
  let targets = Point.Comb.mul_all (Setup.w_comb t.setup) neg_r (fun l wr -> Point.add (prod l) wr) in
  let solved = Curve25519.Dlog.solve_many solver targets in
  let bad_coord = ref None in
  Array.iteri (fun l v -> if v = None && !bad_coord = None then bad_coord := Some l) solved;
  match !bad_coord with
  | Some l -> Error (Coordinate_out_of_range l)
  | None -> Ok (Array.map (function Some v -> v | None -> assert false) solved)

(* Shared aggregation tail of the all-to-all path: verify each aggregated
   share against [combined_check], recover the blind r, then decode. *)
let finish_aggregate t ~combined_check ~prod ~agg_msgs =
  let threshold = Params.shamir_t t.setup.Setup.params in
  (* collect valid aggregated shares; each VSSS check is an independent
     MSM against the combined check string, so fan them out *)
  let checked =
    Parallel.parallel_mapi
      (fun idx msg ->
        let i = idx + 1 in
        if t.bad.(idx) || not t.active.(idx) then None
        else
          match msg with
          | None -> None
          | Some (am : Wire.agg_msg) ->
              let share = { Vsss.idx = i; value = am.Wire.r_sum } in
              if Vsss.verify ~g:t.setup.Setup.g ~check:combined_check share then Some share
              else None)
      agg_msgs
  in
  let valid_shares = ref [] in
  Array.iter (function Some s -> valid_shares := s :: !valid_shares | None -> ()) checked;
  let shares = !valid_shares in
  if List.length shares < threshold then
    Error (Insufficient_quorum { valid = List.length shares; needed = threshold })
  else
    let r = Vsss.recover (take threshold shares) in
    decode_with_r t ~prod ~r

let sub_check a b = Array.mapi (fun i ai -> Point.sub ai b.(i)) a

(* The round's aggregation inputs, read off the finished proof stream:
   its running sums cover every included client, and [drop idx] names
   the included clients to take back out — late convictions (a client
   folded during the stream but convicted afterwards, e.g. by an agg-stage
   decode failure) and, under a k-regular topology, excluded dropouts.
   Eviction kept each included client's check string (in [commits]) and
   compressed y (in the spill), so both subtractions are exact. Returns
   the combined check string and the per-coordinate product Π y_il. *)
let streamed_sums t ~caller ~drop =
  let sa =
    match t.stream_agg with
    | Some sa when sa.sa_round = t.round -> sa
    | _ -> invalid_arg (caller ^ ": no verified proof stage this round")
  in
  let late = ref [] in
  Array.iteri (fun idx inc -> if inc && drop idx then late := idx :: !late) sa.sa_included;
  let late = List.rev !late in
  let combined_check =
    List.fold_left
      (fun acc idx ->
        match (acc, t.commits.(idx)) with
        | Some a, Some c -> Some (sub_check a c.Wire.check)
        | _ -> acc)
      sa.sa_check late
  in
  let late_y = List.filter_map (fun idx -> Option.map spill_decode sa.sa_spill.(idx)) late in
  (combined_check, fun l -> List.fold_left (fun acc y -> Point.sub acc y.(l)) sa.sa_aggy.(l) late_y)

let aggregate t ~agg_msgs =
  let combined_check, prod =
    streamed_sums t ~caller:"Server.aggregate" ~drop:(fun idx -> t.bad.(idx))
  in
  let threshold = Params.shamir_t t.setup.Setup.params in
  if honest t = [] then Error (Insufficient_quorum { valid = 0; needed = threshold })
  else
    match combined_check with
    | None -> Error No_check_string
    | Some combined_check -> finish_aggregate t ~combined_check ~prod ~agg_msgs

(* --- k-regular aggregation ------------------------------------------ *)

let c_topo_recovered = Telemetry.Counter.make "topo.recovered"
let c_topo_excluded = Telemetry.Counter.make "topo.excluded"

(* The k-regular round replaces n VSSS share-sums with one masked scalar
   per client: m_i = r_i + Σ_{j∈N(i)∩H, j≠i} ε_ij·mask_ij. Summed over
   the alive clients the masks cancel; each dropout d leaves (a) its own
   r_d missing and (b) one dangling ε_id·mask_id inside every alive
   neighbor's m_i. [recover ~dropout ~responders] runs the neighborhood
   sub-exchange and returns, per responder, d's VSSS share (if that
   responder holds a verified one) and the pairwise mask. Masks are
   {e always} unwound; r_d is interpolated back when ≥ threshold shares
   verify against d's retained check string, otherwise d's update is
   excluded from the aggregate (removed from the product and the
   combined check — excluded, not convicted: an honest dropout is not
   malicious). A client convicted {e during} the agg exchange (e.g. an
   undecodable frame) is excluded the same way but never recovered.
   Finally g^R is checked against Π z_i over the survivors — any
   tampered masked sum surfaces here as [Aggregate_mismatch] (individual
   masked sums are not per-client attributable, unlike share sums). *)
let aggregate_kregular t ~topo ~honest ~recover ~agg_msgs =
  let module T = Risefl_topology.Topology in
  let tk = T.threshold topo in
  if Array.length agg_msgs <> n_of t then invalid_arg "Server.aggregate_kregular: wrong size";
  let alive_set = Array.make (n_of t) false in
  List.iter
    (fun i -> if (not t.bad.(i - 1)) && agg_msgs.(i - 1) <> None then alive_set.(i - 1) <- true)
    honest;
  let alive = List.filter (fun i -> alive_set.(i - 1)) honest in
  if alive = [] then Error (Insufficient_quorum { valid = 0; needed = tk })
  else begin
    let msum = ref Scalar.zero in
    List.iter
      (fun i ->
        match agg_msgs.(i - 1) with
        | Some (am : Wire.agg_msg) -> msum := Scalar.add !msum am.Wire.r_sum
        | None -> ())
      alive;
    let excluded = ref [] in
    List.iter
      (fun d ->
        if not alive_set.(d - 1) then begin
          let responders =
            Array.to_list (T.neighbors topo d) |> List.filter (fun i -> alive_set.(i - 1))
          in
          let resp = recover ~dropout:d ~responders in
          (* unwind every responder's dangling mask toward d, recovered
             or not — the masks are in the alive sums either way *)
          List.iter
            (fun (i, ((_ : Scalar.t option), mask)) ->
              msum := (if i < d then Scalar.sub !msum mask else Scalar.add !msum mask))
            resp;
          let valid =
            match t.commits.(d - 1) with
            | None -> []
            | Some c ->
                List.filter_map
                  (fun (i, (share, _)) ->
                    match share with
                    | Some value
                      when Vsss.verify ~g:t.setup.Setup.g ~check:c.Wire.check
                             { Vsss.idx = i; value } ->
                        Some { Vsss.idx = i; value }
                    | _ -> None)
                  resp
          in
          if (not t.bad.(d - 1)) && List.length valid >= tk then begin
            let r_d = Vsss.recover (take tk valid) in
            msum := Scalar.add !msum r_d;
            Telemetry.Counter.incr c_topo_recovered
          end
          else begin
            excluded := d :: !excluded;
            Telemetry.Counter.incr c_topo_excluded
          end
        end)
      honest;
    let excluded = List.rev !excluded in
    let combined_check, prod =
      streamed_sums t ~caller:"Server.aggregate_kregular" ~drop:(fun idx ->
          t.bad.(idx) || List.mem (idx + 1) excluded)
    in
    match combined_check with
    | None -> Error No_check_string
    | Some combined_check ->
        let r = !msum in
        if
          not
            (Point.equal
               (Point.Table.mul t.setup.Setup.g_table r)
               (Vsss.commitment_of_check combined_check))
        then Error Aggregate_mismatch
        else decode_with_r t ~prod ~r
  end
