type cfg = { bits : int; frac : int }

let make ~bits ~frac =
  if bits < 2 || bits > 40 || frac < 0 || frac >= bits then invalid_arg "Fixed_point.make";
  { bits; frac }

let default = make ~bits:16 ~frac:8

let max_int_value cfg = (1 lsl (cfg.bits - 1)) - 1
let min_int_value cfg = -(1 lsl (cfg.bits - 1))
let scale cfg = float_of_int (1 lsl cfg.frac)

let encode cfg x =
  if Float.is_nan x then 0
  else begin
    let v = Float.round (x *. scale cfg) in
    let hi = float_of_int (max_int_value cfg) and lo = float_of_int (min_int_value cfg) in
    int_of_float (Float.min hi (Float.max lo v))
  end

let decode cfg v = float_of_int v /. scale cfg
let encode_vec cfg = Array.map (encode cfg)
let decode_vec cfg = Array.map (decode cfg)

let l2_norm_encoded v =
  sqrt (Array.fold_left (fun acc x -> acc +. (float_of_int x *. float_of_int x)) 0.0 v)
