module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm
module Gens = Curve25519.Gens

type tables = { lock : Mutex.t; fixed : Msm.Fixed.t Lazy.t }
type gens = { gv : Point.t array; hv : Point.t array; u : Point.t; tables : tables }

(* the tables hold g_0 .. g_{c-1}, h_0 .. h_{c-1} and u, the layout
   Ipa.prove_table reads, with h_i at index c + i *)
let table_width n = min Ipa.table_cutoff n

let make_gens ~label n =
  let gv = Gens.derive_many (label ^ "/bp-g") n
  and hv = Gens.derive_many (label ^ "/bp-h") n
  and u = Gens.derive (label ^ "/bp-u") in
  let c = table_width n in
  let fixed = lazy (Msm.Fixed.make (Array.concat [ Array.sub gv 0 c; Array.sub hv 0 c; [| u |] ])) in
  { gv; hv; u; tables = { lock = Mutex.create (); fixed } }

(* under a mutex, as Setup.w_comb: the first prove may run inside a
   Parallel region *)
let tables gens = Mutex.protect gens.tables.lock (fun () -> Lazy.force gens.tables.fixed)

let gen_vector gens = Array.make ((2 * table_width (Array.length gens.gv)) + 1) Scalar.zero

type proof = {
  a : Point.t;
  s : Point.t;
  t1 : Point.t;
  t2 : Point.t;
  t_hat : Scalar.t;
  tau_x : Scalar.t;
  mu : Scalar.t;
  ipa : Ipa.proof;
}

let tmul tbl s p = match tbl with Some t -> Point.Table.mul t s | None -> Point.mul s p

let tdouble_mul t1 s1 p1 t2 s2 p2 =
  match (t1, t2) with
  | None, None -> Point.double_mul s1 p1 s2 p2
  | _ -> Point.add (tmul t1 s1 p1) (tmul t2 s2 p2)

let is_pow2 n = n > 0 && n land (n - 1) = 0
let next_pow2 n = if is_pow2 n then n else 1 lsl (let rec f a v = if v = 0 then a else f (a+1) (v lsr 1) in f 0 n)

let check_bits bits =
  if not (is_pow2 bits) || bits < 2 || bits > 128 then
    invalid_arg "Range_proof: bits must be a power of two in [2, 128]"

(* powers [x^0; x^1; ...; x^{n-1}] *)
let powers x n =
  let a = Array.make n Scalar.one in
  for i = 1 to n - 1 do
    a.(i) <- Scalar.mul a.(i - 1) x
  done;
  a

let dot a b =
  let acc = ref Scalar.zero in
  Array.iteri (fun i ai -> acc := Scalar.add !acc (Scalar.mul ai b.(i))) a;
  !acc

let two_n_minus_1 bits = Bigint.sub (Bigint.shift_left Bigint.one bits) Bigint.one

(* z_vec_i = z^{2+j} * 2^{i mod n} for i in block j *)
let z_vec ~z ~bits ~m =
  let n_total = bits * m in
  let out = Array.make n_total Scalar.zero in
  let zj = ref (Scalar.square z) in
  for j = 0 to m - 1 do
    let pow2 = ref Scalar.one in
    let two = Scalar.of_int 2 in
    for b = 0 to bits - 1 do
      out.((j * bits) + b) <- Scalar.mul !zj !pow2;
      pow2 := Scalar.mul !pow2 two
    done;
    zj := Scalar.mul !zj z
  done;
  out

let absorb_statement tr ~g ~h ~bits ~commitments =
  Transcript.append_int tr ~label:"rp/bits" bits;
  Transcript.append_point tr ~label:"rp/g" g;
  Transcript.append_point tr ~label:"rp/h" h;
  Transcript.append_points tr ~label:"rp/V" commitments

let prove ?g_table ?h_table drbg tr ~gens ~g ~h ~bits ~values ~blinds =
  check_bits bits;
  let m_orig = Array.length values in
  if m_orig = 0 || Array.length blinds <> m_orig then invalid_arg "Range_proof.prove: shapes";
  Array.iter
    (fun v ->
      if Bigint.sign v < 0 || Bigint.bit_length v > bits then
        invalid_arg "Range_proof.prove: value out of range")
    values;
  (* pad the value count to a power of two with (0, 0) openings *)
  let m = next_pow2 m_orig in
  let values = Array.append values (Array.make (m - m_orig) Bigint.zero) in
  let blinds = Array.append blinds (Array.make (m - m_orig) Scalar.zero) in
  let nt = bits * m in
  if Array.length gens.gv < nt || Array.length gens.hv < nt then
    invalid_arg "Range_proof.prove: generator set too small";
  let gv = Array.sub gens.gv 0 nt and hv = Array.sub gens.hv 0 nt in
  let commitments =
    Array.init m_orig (fun j -> tdouble_mul g_table (Scalar.of_bigint values.(j)) g h_table blinds.(j) h)
  in
  absorb_statement tr ~g ~h ~bits ~commitments;
  (* bit decomposition: a_L, a_R = a_L - 1 *)
  let al =
    Array.init nt (fun i -> if Bigint.testbit values.(i / bits) (i mod bits) then Scalar.one else Scalar.zero)
  in
  let ar = Array.map (fun b -> Scalar.sub b Scalar.one) al in
  let alpha = Scalar.random drbg in
  (* A = h^alpha g^{a_L} h^{a_R}: with a_L in {0, 1} and a_R = a_L - 1
     every generator term is a signed unit, so A is one table multiply
     plus nt additions *)
  let a_pt = ref (tmul h_table alpha h) in
  Array.iteri
    (fun i b -> a_pt := if Scalar.is_zero b then Point.sub !a_pt hv.(i) else Point.add !a_pt gv.(i))
    al;
  let a_pt = !a_pt in
  let sl = Array.init nt (fun _ -> Scalar.random drbg) in
  let sr = Array.init nt (fun _ -> Scalar.random drbg) in
  let rho = Scalar.random drbg in
  (* up to the cutoff, S and the IPA run on the generators' fixed-base
     tables; above it, on Msm.msm and the fold prover *)
  let table = if nt <= Ipa.table_cutoff then Some (tables gens) else None in
  let s_pt =
    match table with
    | Some t ->
        let c = table_width (Array.length gens.gv) in
        Point.add (tmul h_table rho h)
          (Msm.Fixed.msm t (Array.init (2 * nt) (fun i -> if i < nt then (sl.(i), i) else (sr.(i - nt), c + i - nt))))
    | None ->
        Msm.msm
          (Array.append
             [| (rho, h) |]
             (Array.append (Array.mapi (fun i b -> (b, gv.(i))) sl) (Array.mapi (fun i b -> (b, hv.(i))) sr)))
  in
  Transcript.append_point tr ~label:"rp/A" a_pt;
  Transcript.append_point tr ~label:"rp/S" s_pt;
  let y = Transcript.challenge_nonzero tr ~label:"rp/y" in
  let z = Transcript.challenge_nonzero tr ~label:"rp/z" in
  let ys = powers y nt in
  let zv = z_vec ~z ~bits ~m in
  (* l(X) = (aL - z 1) + sL X ; r(X) = ys o (aR + z 1 + sR X) + zv *)
  let l0 = Array.map (fun b -> Scalar.sub b z) al in
  let l1 = sl in
  let r0 = Array.mapi (fun i b -> Scalar.add (Scalar.mul ys.(i) (Scalar.add b z)) zv.(i)) ar in
  let r1 = Array.mapi (fun i sri -> Scalar.mul ys.(i) sri) sr in
  let t0 = dot l0 r0 in
  let t2 = dot l1 r1 in
  let t1 = Scalar.sub (Scalar.sub (dot (Array.map2 Scalar.add l0 l1) (Array.map2 Scalar.add r0 r1)) t0) t2 in
  let tau1 = Scalar.random drbg and tau2 = Scalar.random drbg in
  let t1_pt = tdouble_mul g_table t1 g h_table tau1 h in
  let t2_pt = tdouble_mul g_table t2 g h_table tau2 h in
  Transcript.append_point tr ~label:"rp/T1" t1_pt;
  Transcript.append_point tr ~label:"rp/T2" t2_pt;
  let x = Transcript.challenge_nonzero tr ~label:"rp/x" in
  let l = Array.init nt (fun i -> Scalar.add l0.(i) (Scalar.mul l1.(i) x)) in
  let r = Array.init nt (fun i -> Scalar.add r0.(i) (Scalar.mul r1.(i) x)) in
  let t_hat = dot l r in
  let x2 = Scalar.square x in
  let tau_x =
    let zjs = powers z (m + 2) in
    let blind_term = ref Scalar.zero in
    Array.iteri (fun j gamma -> blind_term := Scalar.add !blind_term (Scalar.mul zjs.(j + 2) gamma)) blinds;
    Scalar.add (Scalar.add (Scalar.mul tau1 x) (Scalar.mul tau2 x2)) !blind_term
  in
  let mu = Scalar.add alpha (Scalar.mul rho x) in
  Transcript.append_scalar tr ~label:"rp/t_hat" t_hat;
  Transcript.append_scalar tr ~label:"rp/tau_x" tau_x;
  Transcript.append_scalar tr ~label:"rp/mu" mu;
  let w = Transcript.challenge_nonzero tr ~label:"rp/w" in
  (* the IPA runs over (gv, h'_i = h_i^{y^-i}, u^w); y^-1 and w go in as
     scalar factors, so h' and u^w are never materialized *)
  let h_factor = Scalar.inv y in
  let ipa =
    match table with
    | Some t -> Ipa.prove_table ~h_factor ~u_scale:w t tr ~a:l ~b:r
    | None -> Ipa.prove ~h_factor ~u_scale:w tr ~g:gv ~h:hv ~u:gens.u ~a:l ~b:r
  in
  { a = a_pt; s = s_pt; t1 = t1_pt; t2 = t2_pt; t_hat; tau_x; mu; ipa }

let verify tr ~gens ~g ~h ~bits ~commitments proof =
  check_bits bits;
  let m_orig = Array.length commitments in
  if m_orig = 0 then false
  else begin
    let m = next_pow2 m_orig in
    let nt = bits * m in
    if Array.length gens.gv < nt || Array.length gens.hv < nt then false
    else begin
      let gv = Array.sub gens.gv 0 nt and hv = Array.sub gens.hv 0 nt in
      let vs = Array.append commitments (Array.make (m - m_orig) Point.identity) in
      absorb_statement tr ~g ~h ~bits ~commitments;
      Transcript.append_point tr ~label:"rp/A" proof.a;
      Transcript.append_point tr ~label:"rp/S" proof.s;
      let y = Transcript.challenge_nonzero tr ~label:"rp/y" in
      let z = Transcript.challenge_nonzero tr ~label:"rp/z" in
      Transcript.append_point tr ~label:"rp/T1" proof.t1;
      Transcript.append_point tr ~label:"rp/T2" proof.t2;
      let x = Transcript.challenge_nonzero tr ~label:"rp/x" in
      Transcript.append_scalar tr ~label:"rp/t_hat" proof.t_hat;
      Transcript.append_scalar tr ~label:"rp/tau_x" proof.tau_x;
      Transcript.append_scalar tr ~label:"rp/mu" proof.mu;
      let w = Transcript.challenge_nonzero tr ~label:"rp/w" in
      let u_x = Point.mul w gens.u in
      let ys = powers y nt in
      let zjs = powers z (m + 3) in
      let x2 = Scalar.square x in
      (* check 1: g^{t_hat} h^{tau_x} = g^{delta} V^{z^{2+j}} T1^x T2^{x^2} *)
      let sum_y = Array.fold_left Scalar.add Scalar.zero ys in
      let two_n = Scalar.of_bigint (two_n_minus_1 bits) in
      let sum_z3 = ref Scalar.zero in
      for j = 0 to m - 1 do
        sum_z3 := Scalar.add !sum_z3 zjs.(j + 3)
      done;
      let delta = Scalar.sub (Scalar.mul (Scalar.sub z (Scalar.square z)) sum_y) (Scalar.mul !sum_z3 two_n) in
      let lhs1 = Point.double_mul proof.t_hat g proof.tau_x h in
      let rhs1 =
        Msm.msm
          (Array.append
             [| (delta, g); (x, proof.t1); (x2, proof.t2) |]
             (Array.mapi (fun j v -> (zjs.(j + 2), v)) vs))
      in
      if not (Point.equal lhs1 rhs1) then false
      else begin
        (* check 2: IPA on P = A S^x g^{-z} h'^{(z ys + zv) adj} h^{-mu} u_x^{t_hat} *)
        let zv = z_vec ~z ~bits ~m in
        let yinv = Scalar.inv y in
        let yinv_pows = powers yinv nt in
        let hv' = Array.init nt (fun i -> Point.mul yinv_pows.(i) hv.(i)) in
        (* exponent over h'_i is z*y^i + zv_i *)
        let h_exp = Array.init nt (fun i -> Scalar.add (Scalar.mul z ys.(i)) zv.(i)) in
        let p =
          Msm.msm
            (Array.concat
               [
                 [| (Scalar.one, proof.a); (x, proof.s); (Scalar.neg proof.mu, h); (proof.t_hat, u_x) |];
                 Array.map (fun gi -> (Scalar.neg z, gi)) gv;
                 Array.mapi (fun i hi -> (h_exp.(i), hi)) hv';
               ])
        in
        Ipa.verify tr ~g:gv ~h:hv' ~u:u_x ~p proof.ipa
      end
    end
  end

(* RLC form of [verify]: one [rho] draw per point equation (check 1 and
   the IPA check). Replays the transcript byte-identically to [verify].

   The big win over the naive path is that h'_i = h_i^{y^{-i}} is never
   materialized: the reindexing factor y^{-i} is folded into the scalar
   coefficient of the raw generator h_i, turning nt variable-base point
   multiplications into nt scalar multiplications inside one big MSM.
   Likewise u_x = u^w stays as a coefficient w on the raw u, and the
   whole P commitment for the IPA is pushed as terms instead of being
   evaluated. Identity padding commitments (value count below the padded
   power of two) contribute nothing and are skipped.

   The generator coefficients go into [gen] in the layout of [tables]
   (g_i at i, h_i at c + i, u at 2c), where the proofs that share the
   vector sum them per base; only indices at or past c, which exist
   only when the set is longer than Ipa.table_cutoff, are pushed as
   terms.  The generators lie in the prime-order subgroup, so a summed
   coefficient gives the same group element as the terms it replaces. *)
let accumulate ~rho ~push ~gen tr ~gens ~g ~h ~bits ~commitments proof =
  check_bits bits;
  let c = table_width (Array.length gens.gv) in
  if Array.length gen <> (2 * c) + 1 then invalid_arg "Range_proof.accumulate: gen vector length";
  let m_orig = Array.length commitments in
  if m_orig = 0 then false
  else begin
    let m = next_pow2 m_orig in
    let nt = bits * m in
    if Array.length gens.gv < nt || Array.length gens.hv < nt then false
    else begin
      absorb_statement tr ~g ~h ~bits ~commitments;
      Transcript.append_point tr ~label:"rp/A" proof.a;
      Transcript.append_point tr ~label:"rp/S" proof.s;
      let y = Transcript.challenge_nonzero tr ~label:"rp/y" in
      let z = Transcript.challenge_nonzero tr ~label:"rp/z" in
      Transcript.append_point tr ~label:"rp/T1" proof.t1;
      Transcript.append_point tr ~label:"rp/T2" proof.t2;
      let x = Transcript.challenge_nonzero tr ~label:"rp/x" in
      Transcript.append_scalar tr ~label:"rp/t_hat" proof.t_hat;
      Transcript.append_scalar tr ~label:"rp/tau_x" proof.tau_x;
      Transcript.append_scalar tr ~label:"rp/mu" proof.mu;
      let w = Transcript.challenge_nonzero tr ~label:"rp/w" in
      let ys = powers y nt in
      let zjs = powers z (m + 3) in
      let x2 = Scalar.square x in
      (* check 1, as rho1 * (LHS - RHS) *)
      let r1 = rho () in
      let sum_y = Array.fold_left Scalar.add Scalar.zero ys in
      let two_n = Scalar.of_bigint (two_n_minus_1 bits) in
      let sum_z3 = ref Scalar.zero in
      for j = 0 to m - 1 do
        sum_z3 := Scalar.add !sum_z3 zjs.(j + 3)
      done;
      let delta = Scalar.sub (Scalar.mul (Scalar.sub z (Scalar.square z)) sum_y) (Scalar.mul !sum_z3 two_n) in
      push (Scalar.mul r1 (Scalar.sub proof.t_hat delta)) g;
      push (Scalar.mul r1 proof.tau_x) h;
      push (Scalar.neg (Scalar.mul r1 x)) proof.t1;
      push (Scalar.neg (Scalar.mul r1 x2)) proof.t2;
      for j = 0 to m_orig - 1 do
        push (Scalar.neg (Scalar.mul r1 zjs.(j + 2))) commitments.(j)
      done;
      (* check 2: rho2 * (IPA recombination - P), with the generator-vector
         coefficients from the IPA merged with P's before pushing *)
      let r2 = rho () in
      let zv = z_vec ~z ~bits ~m in
      let yinv = Scalar.inv y in
      let yinv_pows = powers yinv nt in
      let gcoef = Array.make nt Scalar.zero in
      let hcoef = Array.make nt Scalar.zero in
      let ucoef = ref Scalar.zero in
      let ok =
        Ipa.accumulate ~rho:r2
          ~push_g:(fun i c -> gcoef.(i) <- Scalar.add gcoef.(i) c)
          ~push_h:(fun i c -> hcoef.(i) <- Scalar.add hcoef.(i) c)
          ~push_u:(fun c -> ucoef := Scalar.add !ucoef c)
          ~push tr ~n:nt proof.ipa
      in
      ok
      && begin
           push (Scalar.neg r2) proof.a;
           push (Scalar.neg (Scalar.mul r2 x)) proof.s;
           push (Scalar.mul r2 proof.mu) h;
           ucoef := Scalar.sub !ucoef (Scalar.mul r2 proof.t_hat);
           let r2z = Scalar.mul r2 z in
           let add l s = gen.(l) <- Scalar.add gen.(l) s in
           for i = 0 to nt - 1 do
             let gi = Scalar.add gcoef.(i) r2z in
             let h_exp = Scalar.add (Scalar.mul z ys.(i)) zv.(i) in
             let hi = Scalar.mul (Scalar.sub hcoef.(i) (Scalar.mul r2 h_exp)) yinv_pows.(i) in
             if i < c then begin
               add i gi;
               add (c + i) hi
             end
             else begin
               push gi gens.gv.(i);
               push hi gens.hv.(i)
             end
           done;
           add (2 * c) (Scalar.mul w !ucoef);
           true
         end
    end
  end

let size_bytes p = (4 * 32) + (3 * 32) + Ipa.size_bytes p.ipa
