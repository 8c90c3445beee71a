module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm

type proof = { ls : Point.t array; rs : Point.t array; a : Scalar.t; b : Scalar.t }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_shapes n lengths =
  if not (is_pow2 n) then invalid_arg "Ipa.prove: length must be a power of two";
  if List.exists (( <> ) n) lengths then invalid_arg "Ipa.prove: length mismatch"

(* The fold prover never normalizes the folded generators.
   At the start of every round the effective generators are

     g_i = sg · G_i      h_i = sh · f^i · H_i      u' = w · u

   with G/H the working point arrays, sg/sh uniform scalar scales, f the
   caller's per-index h factor (y^{-1} in the range proof) and w the u
   scale.  The cross terms L/R push those factors into their MSM
   coefficients, and the textbook fold g'_i = x⁻¹·g_lo + x·g_hi becomes
   x⁻¹·sg·(G_lo + x²·G_hi): one point multiplication and an addition,
   with x⁻¹ absorbed into sg.  Likewise h'_i = x·h_lo + x⁻¹·h_hi =
   x·sh·f^i·(H_lo + x⁻²·f^half·H_hi).  L and R are the same group
   elements as with materialized generators, so the proof bytes are
   identical.  The last round's generators are never used and are not
   folded. *)
let prove ?(h_factor = Scalar.one) ?(u_scale = Scalar.one) tr ~g ~h ~u ~a ~b =
  let n = Array.length g in
  check_shapes n [ Array.length h; Array.length a; Array.length b ];
  let gs = Array.copy g and hs = Array.copy h in
  let a = Array.copy a and b = Array.copy b in
  let fpow = Array.make n Scalar.one in
  for i = 1 to n - 1 do
    fpow.(i) <- Scalar.mul fpow.(i - 1) h_factor
  done;
  let sg = ref Scalar.one and sh = ref Scalar.one in
  let len = ref n in
  let ls = ref [] and rs = ref [] in
  while !len > 1 do
    let half = !len / 2 in
    (* L = g_hi^{a_lo} h_lo^{b_hi} u'^{<a_lo, b_hi>}, R = g_lo^{a_hi} h_hi^{b_lo} u'^{<a_hi, b_lo>} *)
    let lt = Array.make ((2 * half) + 1) (Scalar.zero, u) in
    let rt = Array.make ((2 * half) + 1) (Scalar.zero, u) in
    let c_l = ref Scalar.zero and c_r = ref Scalar.zero in
    for i = 0 to half - 1 do
      let j = half + i in
      c_l := Scalar.add !c_l (Scalar.mul a.(i) b.(j));
      c_r := Scalar.add !c_r (Scalar.mul a.(j) b.(i));
      lt.(i) <- (Scalar.mul a.(i) !sg, gs.(j));
      lt.(j) <- (Scalar.mul b.(j) (Scalar.mul !sh fpow.(i)), hs.(i));
      rt.(i) <- (Scalar.mul a.(j) !sg, gs.(i));
      rt.(j) <- (Scalar.mul b.(i) (Scalar.mul !sh fpow.(j)), hs.(j))
    done;
    lt.(2 * half) <- (Scalar.mul !c_l u_scale, u);
    rt.(2 * half) <- (Scalar.mul !c_r u_scale, u);
    let l = Msm.msm lt and r = Msm.msm rt in
    Transcript.append_point tr ~label:"ipa/L" l;
    Transcript.append_point tr ~label:"ipa/R" r;
    ls := l :: !ls;
    rs := r :: !rs;
    let x = Transcript.challenge_nonzero tr ~label:"ipa/x" in
    let xinv = Scalar.inv x in
    for i = 0 to half - 1 do
      let j = half + i in
      let a_lo = a.(i) and b_lo = b.(i) in
      a.(i) <- Scalar.add (Scalar.mul a_lo x) (Scalar.mul a.(j) xinv);
      b.(i) <- Scalar.add (Scalar.mul b_lo xinv) (Scalar.mul b.(j) x)
    done;
    if half > 1 then begin
      let gmul = Scalar.square x in
      let hmul = Scalar.mul (Scalar.square xinv) fpow.(half) in
      for i = 0 to half - 1 do
        gs.(i) <- Point.add gs.(i) (Point.mul gmul gs.(half + i));
        hs.(i) <- Point.add hs.(i) (Point.mul hmul hs.(half + i))
      done;
      sg := Scalar.mul !sg xinv;
      sh := Scalar.mul !sh x
    end;
    len := half
  done;
  { ls = Array.of_list (List.rev !ls); rs = Array.of_list (List.rev !rs); a = a.(0); b = b.(0) }

(* The table prover folds no generator.  After r rounds, the working
   generator at index i < len = n/2^r is Σ_k cg_k·G_k over the original
   indices k ≡ i (mod len), and likewise h_i = Σ_k f^k·ch_k·H_k; cg_k
   and ch_k are products of x^{±1}, one factor per round, chosen by the
   bit of k that round split on.  Those are the top r bits of k, so the
   prover keeps the 2^r products, indexed by k / len, rather than n.  A
   round's L (or R) is then one fixed-base MSM over the original
   generators: every G_k and every H_k lands in exactly one of the two,
   so each has n + 1 terms.  L and R are the group elements the fold
   prover computes, so the proofs are identical. *)
let prove_table ?(h_factor = Scalar.one) ?(u_scale = Scalar.one) table tr ~a ~b =
  let n = Array.length a in
  check_shapes n [ Array.length b ];
  let c = (Msm.Fixed.length table - 1) / 2 in
  if n > c then invalid_arg "Ipa.prove_table: more generators than the table holds";
  let a = Array.copy a and b = Array.copy b in
  let fpow = Array.make n Scalar.one in
  for k = 1 to n - 1 do
    fpow.(k) <- Scalar.mul fpow.(k - 1) h_factor
  done;
  let cg = ref [| Scalar.one |] and ch = ref [| Scalar.one |] in
  let len = ref n in
  let ls = ref [] and rs = ref [] in
  while !len > 1 do
    let len_ = !len and cg_ = !cg and ch_ = !ch in
    let half = len_ / 2 in
    let c_l = ref Scalar.zero and c_r = ref Scalar.zero in
    for i = 0 to half - 1 do
      c_l := Scalar.add !c_l (Scalar.mul a.(i) b.(half + i));
      c_r := Scalar.add !c_r (Scalar.mul a.(half + i) b.(i))
    done;
    (* original index k sits at working index i = k mod len, paired with
       i ± half; L takes H_k from the low half and G_k from the high
       half, R the other way round *)
    let cross ~left cu =
      Msm.Fixed.msm table
        (Array.init (n + 1) (fun k ->
             if k = n then (Scalar.mul cu u_scale, 2 * c)
             else begin
               let i = k land (len_ - 1) and q = k / len_ in
               let pair = if i < half then i + half else i - half in
               if i < half = left then (Scalar.mul b.(pair) (Scalar.mul fpow.(k) ch_.(q)), c + k)
               else (Scalar.mul a.(pair) cg_.(q), k)
             end))
    in
    (* L = Σ_{i<half} a_i·g_{half+i} + b_{half+i}·h_i + c_L·u' *)
    let l = cross ~left:true !c_l in
    (* R = Σ_{i<half} a_{half+i}·g_i + b_i·h_{half+i} + c_R·u' *)
    let r = cross ~left:false !c_r in
    Transcript.append_point tr ~label:"ipa/L" l;
    Transcript.append_point tr ~label:"ipa/R" r;
    ls := l :: !ls;
    rs := r :: !rs;
    let x = Transcript.challenge_nonzero tr ~label:"ipa/x" in
    let xinv = Scalar.inv x in
    for i = 0 to half - 1 do
      let j = half + i in
      let a_lo = a.(i) and b_lo = b.(i) in
      a.(i) <- Scalar.add (Scalar.mul a_lo x) (Scalar.mul a.(j) xinv);
      b.(i) <- Scalar.add (Scalar.mul b_lo xinv) (Scalar.mul b.(j) x)
    done;
    (* g' = x⁻¹·g_lo + x·g_hi, h' = x·h_lo + x⁻¹·h_hi; q' = 2q + [hi] *)
    if half > 1 then begin
      cg := Array.init (2 * Array.length cg_) (fun q -> Scalar.mul cg_.(q / 2) (if q land 1 = 0 then xinv else x));
      ch := Array.init (2 * Array.length ch_) (fun q -> Scalar.mul ch_.(q / 2) (if q land 1 = 0 then x else xinv))
    end;
    len := half
  done;
  { ls = Array.of_list (List.rev !ls); rs = Array.of_list (List.rev !rs); a = a.(0); b = b.(0) }

(* Read off the ipa-prove@n rows of [bench group] (jobs=1, four sweeps
   on a shared 2-vCPU x86-64 host): fold/table time ratios of 1.6-2.4
   at n = 64, 1.4-1.7 at 128 and 1.25-1.4 at 256, then 0.97-1.25 at
   512, 0.95-1.3 at 1024, 0.7-1.0 at 2048 and 0.84-0.93 at 4096.  256
   is the largest size the tables won in every sweep.  It covers the client's
   σ proof up to k = 8 at 32 bits and every μ proof (at most 128 bits),
   and bounds a table at 513 bases (1.97 MB). *)
let table_cutoff = 256

let verify tr ~g ~h ~u ~p proof =
  let n = Array.length g in
  if not (is_pow2 n) || Array.length h <> n then false
  else begin
    let rounds = Array.length proof.ls in
    if Array.length proof.rs <> rounds || 1 lsl rounds <> n then false
    else begin
      (* replay the challenges *)
      let xs = Array.make rounds Scalar.zero in
      for j = 0 to rounds - 1 do
        Transcript.append_point tr ~label:"ipa/L" proof.ls.(j);
        Transcript.append_point tr ~label:"ipa/R" proof.rs.(j);
        xs.(j) <- Transcript.challenge_nonzero tr ~label:"ipa/x"
      done;
      let xinvs = Array.map Scalar.inv xs in
      (* s_i = prod_j x_j^{eps(i,j)}: eps = +1 when bit (rounds-1-j) of i is
         set (round j splits on that bit), else -1 *)
      let s = Array.make n Scalar.one in
      for i = 0 to n - 1 do
        let acc = ref Scalar.one in
        for j = 0 to rounds - 1 do
          let bit = (i lsr (rounds - 1 - j)) land 1 in
          acc := Scalar.mul !acc (if bit = 1 then xs.(j) else xinvs.(j))
        done;
        s.(i) <- !acc
      done;
      (* check: P * prod L_j^{x_j^2} R_j^{x_j^-2} = g^{a s} h^{b / s} u^{ab}
         rearranged into a single MSM equal to the identity. *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        pairs := (Scalar.mul proof.a s.(i), g.(i)) :: !pairs;
        (* s_{n-1-i} has every challenge exponent flipped, so it IS 1/s_i *)
        pairs := (Scalar.mul proof.b s.(n - 1 - i), h.(i)) :: !pairs
      done;
      pairs := (Scalar.mul proof.a proof.b, u) :: !pairs;
      for j = 0 to rounds - 1 do
        pairs := (Scalar.neg (Scalar.square xs.(j)), proof.ls.(j)) :: !pairs;
        pairs := (Scalar.neg (Scalar.square xinvs.(j)), proof.rs.(j)) :: !pairs
      done;
      let rhs = Msm.msm (Array.of_list !pairs) in
      Point.equal rhs p
    end
  end

(* The scalars s_i = Π_j x_j^{±1} of [verify], + where bit (rounds−1−j)
   of i is set, with n − 1 multiplications instead of n·log n: s_0 =
   Π_j x_j⁻¹, and setting the top bit b of i multiplies by x_j² for j =
   rounds−1−b, so s_i = s_{i−2^b}·x_j² (the recurrence of dalek's
   verification_scalars).  The x_j⁻¹ come from one batched inversion:
   prefix products, one [Scalar.inv] of the full product (which is s_0),
   then a walk back. *)
let verification_scalars xs =
  let rounds = Array.length xs in
  let prefix = Array.make (rounds + 1) Scalar.one in
  for j = 0 to rounds - 1 do
    prefix.(j + 1) <- Scalar.mul prefix.(j) xs.(j)
  done;
  let s0 = Scalar.inv prefix.(rounds) in
  let xinvs = Array.make rounds Scalar.zero in
  let acc = ref s0 in
  for j = rounds - 1 downto 0 do
    xinvs.(j) <- Scalar.mul !acc prefix.(j);
    acc := Scalar.mul !acc xs.(j)
  done;
  let xsq = Array.map Scalar.square xs in
  let s = Array.make (1 lsl rounds) s0 in
  let top = ref 0 in
  for i = 1 to (1 lsl rounds) - 1 do
    if i = 2 lsl !top then incr top;
    s.(i) <- Scalar.mul s.(i - (1 lsl !top)) xsq.(rounds - 1 - !top)
  done;
  (xinvs, s)

(* RLC form of [verify] for batch verification. The whole IPA check is a
   single point equation; [rho] is its random batching coefficient. Base
   coefficients are handed back by index ([push_g i c] means "add c·g_i",
   likewise [push_h]/[push_u]) so the range-proof layer can merge them
   with its own per-index coefficients (folding the h'_i = h_i^{y^{-i}}
   reindexing into scalars instead of materializing nt point
   multiplications); L/R cross terms go straight to [push]. The caller
   must push -rho·P itself. Transcript replay is identical to [verify];
   structural mismatches return false without absorbing, like [verify]. *)
let accumulate ~rho ~push_g ~push_h ~push_u ~push tr ~n proof =
  if not (is_pow2 n) then false
  else begin
    let rounds = Array.length proof.ls in
    if Array.length proof.rs <> rounds || 1 lsl rounds <> n then false
    else begin
      let xs = Array.make rounds Scalar.zero in
      for j = 0 to rounds - 1 do
        Transcript.append_point tr ~label:"ipa/L" proof.ls.(j);
        Transcript.append_point tr ~label:"ipa/R" proof.rs.(j);
        xs.(j) <- Transcript.challenge_nonzero tr ~label:"ipa/x"
      done;
      let xinvs, s = verification_scalars xs in
      let ra = Scalar.mul rho proof.a and rb = Scalar.mul rho proof.b in
      for i = 0 to n - 1 do
        push_g i (Scalar.mul ra s.(i));
        push_h i (Scalar.mul rb s.(n - 1 - i))
      done;
      push_u (Scalar.mul ra proof.b);
      for j = 0 to rounds - 1 do
        push (Scalar.neg (Scalar.mul rho (Scalar.square xs.(j)))) proof.ls.(j);
        push (Scalar.neg (Scalar.mul rho (Scalar.square xinvs.(j)))) proof.rs.(j)
      done;
      true
    end
  end

let size_bytes p = (32 * (Array.length p.ls + Array.length p.rs)) + 64
