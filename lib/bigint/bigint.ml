(* Arbitrary-precision signed integers on 26-bit limbs.

   Magnitudes are little-endian [int array]s whose entries lie in
   [0, 2^26); the top limb of a normalized magnitude is nonzero.  26-bit
   limbs keep every intermediate product (52 bits) and limb-sum far below
   the 63-bit native-int range, so no boxed arithmetic is ever needed. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = { neg : bool; mag : int array }
(* invariant: normalized; zero is { neg = false; mag = [||] } *)

let zero = { neg = false; mag = [||] }

let normalize neg mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { neg; mag }
  else { neg; mag = Array.sub mag 0 !n }

let of_limbs ~neg limbs = normalize neg (Array.copy limbs)
let is_zero x = Array.length x.mag = 0
let sign x = if is_zero x then 0 else if x.neg then -1 else 1

let of_int n =
  if n = 0 then zero
  else begin
    let neg = n < 0 in
    (* abs min_int overflows; peel limbs with logical ops on the raw value *)
    let rec limbs acc v = if v = 0 then List.rev acc else limbs ((v land mask) :: acc) (v lsr limb_bits) in
    let v = if neg then -n else n in
    if v > 0 then { neg; mag = Array.of_list (limbs [] v) }
    else
      (* n = min_int: build from its bit pattern *)
      let v = n lxor min_int in
      let m = Array.of_list (limbs [] v) in
      let m = Array.append m (Array.make (3 - Array.length m) 0) in
      (* set bit 62 *)
      m.(62 / limb_bits) <- m.(62 / limb_bits) lor (1 lsl (62 mod limb_bits));
      normalize true m
  end

let one = of_int 1
let two = of_int 2

let to_int_opt x =
  let n = Array.length x.mag in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    (* accumulate negatively: the int range is asymmetric and the negative
       side holds one more magnitude (min_int = -2^62) *)
    let v = ref 0 in
    let ok = ref true in
    for i = n - 1 downto 0 do
      (* need v*2^26 - limb >= min_int, i.e. v >= ceil((min_int + limb) / 2^26) *)
      let m = min_int + x.mag.(i) in
      let bound = (m asr limb_bits) + (if m land mask <> 0 then 1 else 0) in
      if !v < bound then ok := false else v := (!v lsl limb_bits) - x.mag.(i)
    done;
    if not !ok then None
    else if x.neg then Some !v
    else if !v = min_int then None
    else Some (- !v)
  end

let to_int x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int: overflow"

(* --- magnitude primitives --- *)

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r

(* requires |a| >= |b| *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land mask;
          carry := s lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    r
  end

(* --- signed ops --- *)

let neg x = if is_zero x then x else { x with neg = not x.neg }
let abs x = if x.neg then { x with neg = false } else x

let add x y =
  if is_zero x then y
  else if is_zero y then x
  else if x.neg = y.neg then normalize x.neg (mag_add x.mag y.mag)
  else begin
    let c = mag_compare x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then normalize x.neg (mag_sub x.mag y.mag)
    else normalize y.neg (mag_sub y.mag x.mag)
  end

let sub x y = add x (neg y)

let mul x y =
  if is_zero x || is_zero y then zero
  else normalize (x.neg <> y.neg) (mag_mul x.mag y.mag)

let compare x y =
  match (sign x, sign y) with
  | sx, sy when sx <> sy -> Stdlib.compare sx sy
  | 0, _ -> 0
  | 1, _ -> mag_compare x.mag y.mag
  | _ -> mag_compare y.mag x.mag

let equal x y = compare x y = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* --- bit operations --- *)

let bit_length x =
  let n = Array.length x.mag in
  if n = 0 then 0
  else begin
    let top = x.mag.(n - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + width 0 top
  end

let testbit x i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length x.mag && (x.mag.(limb) lsr off) land 1 = 1

let to_digits ~bits ~count x =
  if bits < 1 || bits > 30 then invalid_arg "Bigint.to_digits: bits must be in [1, 30]";
  if count < 0 then invalid_arg "Bigint.to_digits: negative count";
  let out = Array.make count 0 in
  let mag = x.mag in
  let nl = Array.length mag in
  let dmask = (1 lsl bits) - 1 in
  (* little-endian bit buffer: limbs are drained 26 bits at a time, so
     [acc] never exceeds (bits - 1) + 26 <= 55 significant bits *)
  let acc = ref 0 and acc_bits = ref 0 and li = ref 0 in
  for i = 0 to count - 1 do
    while !acc_bits < bits && !li < nl do
      acc := !acc lor (mag.(!li) lsl !acc_bits);
      acc_bits := !acc_bits + limb_bits;
      incr li
    done;
    out.(i) <- !acc land dmask;
    acc := !acc lsr bits;
    acc_bits := if !acc_bits > bits then !acc_bits - bits else 0
  done;
  out

let shift_left x n =
  if is_zero x || n = 0 then x
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length x.mag in
    let r = Array.make (la + limbs + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (x.mag.(i) lsl bits) lor !carry in
      r.(i + limbs) <- v land mask;
      carry := v lsr limb_bits
    done;
    r.(la + limbs) <- !carry;
    normalize x.neg r
  end

let shift_right x n =
  if is_zero x || n = 0 then x
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length x.mag in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = x.mag.(i + limbs) lsr bits in
        let hi = if bits > 0 && i + limbs + 1 < la then (x.mag.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
      normalize x.neg r
    end
  end

(* --- division: Knuth algorithm D on 26-bit limbs --- *)

let mag_divmod_small a d =
  (* d in [1, base) *)
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

let mag_divmod u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero;
  if mag_compare u v < 0 then ([||], Array.copy u)
  else if lv = 1 then begin
    let q, r = mag_divmod_small u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    (* normalize: shift so top limb of v has its high bit set *)
    let rec width w x = if x = 0 then w else width (w + 1) (x lsr 1) in
    let s = limb_bits - width 0 v.(lv - 1) in
    let un0 = (shift_left { neg = false; mag = u } s).mag in
    let vn = (shift_left { neg = false; mag = v } s).mag in
    let n = Array.length vn in
    let m = Array.length un0 - n in
    (* one spare top limb so un.(j + n) is always addressable *)
    let un = Array.make (Array.length un0 + 1) 0 in
    Array.blit un0 0 un 0 (Array.length un0);
    let q = Array.make (m + 1) 0 in
    let vtop = vn.(n - 1) and vsec = vn.(n - 2) in
    for j = m downto 0 do
      let top2 = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
      let qhat = ref (top2 / vtop) and rhat = ref (top2 mod vtop) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := top2 - (!qhat * vtop)
      end;
      let continue = ref true in
      while !continue && !rhat < base do
        if !qhat * vsec > (!rhat lsl limb_bits) lor un.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop
        end
        else continue := false
      done;
      (* multiply-subtract *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * vn.(i) + !carry in
        carry := p lsr limb_bits;
        let d = un.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          un.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = un.(j + n) - !carry - !borrow in
      if d < 0 then begin
        un.(j + n) <- d + base;
        (* add back *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- s2 land mask;
          c := s2 lsr limb_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land mask
      end
      else un.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize false (Array.sub un 0 n) in
    let r = shift_right r s in
    (q, r.mag)
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let qm, rm = mag_divmod a.mag b.mag in
  (normalize (a.neg <> b.neg) qm, normalize a.neg rm)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.neg then add r (abs b) else r

(* --- modular arithmetic --- *)

let mod_pow b e m =
  if sign m <= 0 then invalid_arg "Bigint.mod_pow: modulus must be positive";
  if sign e < 0 then invalid_arg "Bigint.mod_pow: negative exponent";
  let b = erem b m in
  let result = ref (if equal m one then zero else one) in
  let acc = ref b in
  let nbits = bit_length e in
  for i = 0 to nbits - 1 do
    if testbit e i then result := erem (mul !result !acc) m;
    if i < nbits - 1 then acc := erem (mul !acc !acc) m
  done;
  !result

let rec gcd_aux a b = if is_zero b then a else gcd_aux b (rem a b)
let gcd a b = gcd_aux (abs a) (abs b)

let mod_inv a m =
  if sign m <= 0 then invalid_arg "Bigint.mod_inv: modulus must be positive";
  (* extended euclid on (a mod m, m) *)
  let a = erem a m in
  let rec go r0 r1 s0 s1 = if is_zero r1 then (r0, s0) else begin
    let q = div r0 r1 in
    go r1 (sub r0 (mul q r1)) s1 (sub s0 (mul q s1))
  end in
  let g, s = go a m one zero in
  if not (equal g one) then raise Not_found;
  erem s m

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n = if n = 0 then acc else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1) in
  go one x n

(* --- string / byte conversions --- *)

let of_hex s =
  let s, negp = if String.length s > 0 && s.[0] = '-' then (String.sub s 1 (String.length s - 1), true) else (s, false) in
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  if String.length s = 0 then invalid_arg "Bigint.of_hex: empty";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | '_' -> -1
    | _ -> invalid_arg "Bigint.of_hex: bad digit"
  in
  let acc = ref zero in
  String.iter
    (fun c ->
      let d = digit c in
      if d >= 0 then acc := add (shift_left !acc 4) (of_int d))
    s;
  if negp then neg !acc else !acc

let to_hex x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 32 in
    let nibbles = (bit_length x + 3) / 4 in
    let started = ref false in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / limb_bits and off = (i * 4) mod limb_bits in
      let v =
        let lo = x.mag.(limb) lsr off in
        let hi = if off > limb_bits - 4 && limb + 1 < Array.length x.mag then x.mag.(limb + 1) lsl (limb_bits - off) else 0 in
        (lo lor hi) land 0xf
      in
      if v <> 0 || !started || i = 0 then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[v]
      end
    done;
    (if x.neg then "-" else "") ^ Buffer.contents buf
  end

let of_string s =
  let s, negp = if String.length s > 0 && s.[0] = '-' then (String.sub s 1 (String.length s - 1), true) else (s, false) in
  if String.length s = 0 then invalid_arg "Bigint.of_string: empty";
  let ten = of_int 10 in
  let acc = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Bigint.of_string: bad digit")
    s;
  if negp then neg !acc else !acc

let to_string x =
  if is_zero x then "0"
  else begin
    (* peel 7 decimal digits at a time via division by 10^7 *)
    let chunk = 10_000_000 in
    let rec go acc mag =
      if Array.length mag = 0 then acc
      else begin
        let q, r = mag_divmod_small mag chunk in
        let q = (normalize false q).mag in
        if Array.length q = 0 then string_of_int r :: acc
        else go (Printf.sprintf "%07d" r :: acc) q
      end
    in
    (if x.neg then "-" else "") ^ String.concat "" (go [] x.mag)
  end

let of_bytes_le b =
  let n = Bytes.length b in
  let limbs = Array.make ((n * 8 / limb_bits) + 1) 0 in
  for i = 0 to n - 1 do
    let v = Char.code (Bytes.get b i) in
    let bitpos = i * 8 in
    let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
    limbs.(limb) <- limbs.(limb) lor ((v lsl off) land mask);
    if off > limb_bits - 8 then limbs.(limb + 1) <- limbs.(limb + 1) lor (v lsr (limb_bits - off))
  done;
  normalize false limbs

let to_bytes_le ~len x =
  if x.neg then invalid_arg "Bigint.to_bytes_le: negative";
  if bit_length x > len * 8 then invalid_arg "Bigint.to_bytes_le: does not fit";
  let b = Bytes.make len '\000' in
  for i = 0 to len - 1 do
    let bitpos = i * 8 in
    let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
    if limb < Array.length x.mag then begin
      let lo = x.mag.(limb) lsr off in
      let hi = if off > limb_bits - 8 && limb + 1 < Array.length x.mag then x.mag.(limb + 1) lsl (limb_bits - off) else 0 in
      Bytes.set b i (Char.chr ((lo lor hi) land 0xff))
    end
  done;
  b

let random ~bits rand26 =
  if bits <= 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let limbs = Array.init nlimbs (fun _ -> rand26 () land mask) in
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    limbs.(nlimbs - 1) <- limbs.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize false limbs
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
