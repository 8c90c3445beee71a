(* Z_l for l = 2^252 + 27742317777372353535851937790883648493.

   Representation: canonical Bigint in [0, l).  Reduction after
   multiplication uses Barrett's method: with b = 2^26 and k = 10 limbs
   (so l < b^k), mu = floor(b^2k / l) is precomputed and
     q = ((x >> 26(k-1)) * mu) >> 26(k+1),  r = x - q*l
   leaves r < 3l, fixed by at most two subtractions. *)

type t = Bigint.t

let order = Bigint.of_string "7237005577332262213973186563042994240857116359379907606001950938285454250989"
let bits = Bigint.bit_length order (* 253 *)
let zero = Bigint.zero
let one = Bigint.one

let k_limbs = 10
let mu = Bigint.div (Bigint.shift_left Bigint.one (2 * k_limbs * Bigint.limb_bits)) order
let shift1 = (k_limbs - 1) * Bigint.limb_bits
let shift2 = (k_limbs + 1) * Bigint.limb_bits

(* Reduce 0 <= x < l^2 (in fact any x < b^2k). *)
let barrett x =
  let q = Bigint.shift_right (Bigint.mul (Bigint.shift_right x shift1) mu) shift2 in
  let r = ref (Bigint.sub x (Bigint.mul q order)) in
  while Bigint.compare !r order >= 0 do
    r := Bigint.sub !r order
  done;
  !r

let of_bigint x =
  if Bigint.sign x >= 0 && Bigint.compare x order < 0 then x
  else if Bigint.sign x >= 0 && Bigint.bit_length x <= 2 * k_limbs * Bigint.limb_bits then barrett x
  else Bigint.erem x order

let of_int n = of_bigint (Bigint.of_int n)
let to_bigint x = x

let half_order = Bigint.shift_right order 1

let to_int_signed x =
  if Bigint.compare x half_order > 0 then Bigint.to_int (Bigint.sub x order) else Bigint.to_int x

let add a b =
  let s = Bigint.add a b in
  if Bigint.compare s order >= 0 then Bigint.sub s order else s

let sub a b =
  let s = Bigint.sub a b in
  if Bigint.sign s < 0 then Bigint.add s order else s

let neg a = if Bigint.is_zero a then a else Bigint.sub order a

(* one count per multiplication ([mul], [square], [mul_small]) and per
   inversion: the scalar share of a round's cost *)
let c_mul = Telemetry.Counter.make "scalar.mul"
let c_inv = Telemetry.Counter.make "scalar.inv"

let mul a b =
  Telemetry.Counter.incr c_mul;
  barrett (Bigint.mul a b)

let square a = mul a a

let mul_small a c =
  Telemetry.Counter.incr c_mul;
  if c >= 0 then barrett (Bigint.mul a (Bigint.of_int c))
  else neg (barrett (Bigint.mul a (Bigint.of_int (-c))))

let inv a =
  if Bigint.is_zero a then raise Division_by_zero;
  Telemetry.Counter.incr c_inv;
  Bigint.mod_inv a order

let equal = Bigint.equal
let is_zero = Bigint.is_zero
let to_bytes x = Bigint.to_bytes_le ~len:32 x

let of_bytes b =
  if Bytes.length b <> 32 then invalid_arg "Scalar.of_bytes: need 32 bytes";
  let x = Bigint.of_bytes_le b in
  if Bigint.compare x order >= 0 then invalid_arg "Scalar.of_bytes: non-canonical";
  x

let of_bytes_opt b =
  if Bytes.length b <> 32 then None
  else begin
    let x = Bigint.of_bytes_le b in
    if Bigint.compare x order >= 0 then None else Some x
  end

let of_bytes_wide b = Bigint.erem (Bigint.of_bytes_le b) order

let random drbg =
  (* 64 uniform bytes reduced mod l: bias < 2^-250 *)
  of_bytes_wide (Prng.Drbg.bytes drbg 64)

let dot_ints a u =
  if Array.length a <> Array.length u then invalid_arg "Scalar.dot_ints: length mismatch";
  (* accumulate exactly in chunks that cannot overflow a native int, then
     fold the chunks into the field.  |a_i * u_i| can approach 2^62, so we
     add terms one by one and spill to a bigint accumulator on overflow
     risk; the cheap common case stays all-native. *)
  let acc_big = ref Bigint.zero in
  let acc = ref 0 in
  let headroom = 1 lsl 60 in
  for i = 0 to Array.length a - 1 do
    let t = a.(i) * u.(i) in
    (* precondition: |a_i * u_i| <= 2^60 (callers use <= 30-bit inputs) *)
    if !acc > headroom || !acc < -headroom then begin
      acc_big := Bigint.add !acc_big (Bigint.of_int !acc);
      acc := 0
    end;
    acc := !acc + t
  done;
  let total = Bigint.add !acc_big (Bigint.of_int !acc) in
  of_bigint total

(* Sliding-window signed recoding (the ref10 "slide"): rewrite the bit
   string into digits that are zero or odd with |digit| <= 15, preserving
   sum digit_i * 2^i.  Nonzero digits end up >= 4 apart on average, so a
   scalar multiplication needs ~bits/5 additions against an 8-entry
   odd-multiples table instead of bits/4 against a 16-entry one — the
   wNAF half of the group-layer fast paths. *)
let wnaf_window = 5

let to_wnaf x =
  let b = to_bytes x in
  let r = Array.make 256 0 in
  for i = 0 to 255 do
    r.(i) <- (Char.code (Bytes.get b (i lsr 3)) lsr (i land 7)) land 1
  done;
  for i = 0 to 255 do
    if r.(i) <> 0 then begin
      let b = ref 1 in
      let continue_ = ref true in
      while !continue_ && !b <= 6 && i + !b < 256 do
        (if r.(i + !b) <> 0 then begin
           if r.(i) + (r.(i + !b) lsl !b) <= 15 then begin
             r.(i) <- r.(i) + (r.(i + !b) lsl !b);
             r.(i + !b) <- 0
           end
           else if r.(i) - (r.(i + !b) lsl !b) >= -15 then begin
             r.(i) <- r.(i) - (r.(i + !b) lsl !b);
             (* propagate the borrow-turned-carry upward *)
             let k = ref (i + !b) in
             let carrying = ref true in
             while !carrying && !k < 256 do
               if r.(!k) = 0 then begin
                 r.(!k) <- 1;
                 carrying := false
               end
               else begin
                 r.(!k) <- 0;
                 incr k
               end
             done;
             (* scalars are < 2^253, so the carry always finds a zero bit *)
             assert (not !carrying)
           end
           else continue_ := false
         end);
        incr b
      done
    end
  done;
  r

let pp fmt x = Format.pp_print_string fmt (Bigint.to_string x)
