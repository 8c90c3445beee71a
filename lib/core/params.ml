type t = {
  n_clients : int;
  max_malicious : int;
  d : int;
  k : int;
  eps_log2 : int;
  b_ip_bits : int;
  b_max_bits : int;
  m_factor : float;
  bound_b : float;
  fp : Encoding.Fixed_point.cfg;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let passrate_params t =
  { Stats.Passrate.k = t.k; eps = 2.0 ** float_of_int (-t.eps_log2); d = t.d; m_factor = t.m_factor }

let gamma t = Stats.Passrate.gamma (passrate_params t)

(* exact float -> bigint conversion via the 53-bit mantissa *)
let bigint_of_float_ceil f =
  if f < 0.0 then invalid_arg "bigint_of_float_ceil: negative";
  let m, e = Float.frexp f in
  (* f = m * 2^e with m in [0.5, 1); mantissa m * 2^53 is integral *)
  let mant = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
  let b = Bigint.of_int mant in
  let shift = e - 53 in
  if shift >= 0 then Bigint.shift_left b shift
  else begin
    let q = Bigint.shift_right b (-shift) in
    (* ceil: if any low bit was dropped, round up *)
    if Bigint.equal (Bigint.shift_left q (-shift)) b then q else Bigint.add q Bigint.one
  end

let b0 t = bigint_of_float_ceil (Stats.Passrate.b0 (passrate_params t) ~b:t.bound_b)

let make ?(eps_log2 = 128) ?(b_ip_bits = 32) ?(b_max_bits = 128) ?(m_factor = 1024.0)
    ?(fp = Encoding.Fixed_point.default) ~n_clients ~max_malicious ~d ~k ~bound_b () =
  if n_clients < 1 then invalid_arg "Params.make: need at least one client";
  if max_malicious < 0 || 2 * max_malicious >= n_clients then
    invalid_arg "Params.make: need m < n/2";
  if d < 1 then invalid_arg "Params.make: d must be positive";
  if k < 1 then invalid_arg "Params.make: k must be positive";
  if eps_log2 < 16 || eps_log2 > 256 then invalid_arg "Params.make: eps_log2 out of range";
  if not (is_pow2 b_ip_bits) || b_ip_bits < 8 || b_ip_bits > 64 then
    invalid_arg "Params.make: b_ip_bits must be a power of two in [8, 64]";
  if not (is_pow2 b_max_bits) || b_max_bits < 16 || b_max_bits > 128 then
    invalid_arg "Params.make: b_max_bits must be a power of two in [16, 128]";
  if m_factor < 2.0 then invalid_arg "Params.make: m_factor too small";
  if bound_b <= 0.0 then invalid_arg "Params.make: bound_b must be positive";
  let t =
    { n_clients; max_malicious; d; k; eps_log2; b_ip_bits; b_max_bits; m_factor; bound_b; fp }
  in
  (* soundness: the sum of k squares of b_ip-bit values must fit in
     b_max bits without wrapping, and B0 must fit too *)
  let rec lg acc v = if v <= 1 then acc else lg (acc + 1) ((v + 1) / 2) in
  let sum_bits = (2 * (b_ip_bits - 1)) + lg 0 k + 1 in
  if sum_bits > b_max_bits then
    invalid_arg
      (Printf.sprintf "Params.make: overflow risk: k * 2^(2 b_ip) needs %d bits > b_max_bits = %d"
         sum_bits b_max_bits);
  if b_max_bits > 250 then invalid_arg "Params.make: b_max_bits must stay far below the group order";
  if Bigint.bit_length (b0 t) > b_max_bits then
    invalid_arg
      (Printf.sprintf "Params.make: B0 needs %d bits, exceeds b_max_bits = %d (reduce bound_b or m_factor)"
         (Bigint.bit_length (b0 t)) b_max_bits);
  (* honest inner products must stay inside the sigma-proof range:
     |<a_t,u>| <= M * B * (sqrt gamma + slack); require headroom *)
  let vmax = m_factor *. bound_b *. (sqrt (gamma t) +. 1.0) in
  if vmax >= Float.ldexp 1.0 (b_ip_bits - 1) then
    invalid_arg
      (Printf.sprintf
         "Params.make: honest projections can reach %.3g but the sigma proof caps them at 2^%d"
         vmax (b_ip_bits - 1));
  t

let shamir_t t = t.max_malicious + 1
let agg_max_abs t = t.n_clients * (1 lsl (t.fp.Encoding.Fixed_point.bits - 1))

let norm_encoded u = Encoding.Fixed_point.l2_norm_encoded u

let check_update_norm t u = norm_encoded u <= t.bound_b

