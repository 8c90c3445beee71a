(** Fixed-point integer encoding of floating-point model updates.

    ML gradients are floats; the cryptographic layer works on integers
    embedded in ℤ_ℓ. Following §2 of the paper we encode a float [x] as
    [round(x · 2^frac)], clamped to a signed [bits]-bit range (the paper's
    default is 16 bits total). *)

type cfg = {
  bits : int;  (** total signed width, including sign; value range is
                   [-2^(bits-1), 2^(bits-1) - 1] *)
  frac : int;  (** number of fractional bits *)
}

(** The paper's default: 16-bit values with 8 fractional bits. *)
val default : cfg

val make : bits:int -> frac:int -> cfg

(** [encode cfg x] — clamping round-to-nearest encoding. *)
val encode : cfg -> float -> int

(** [decode cfg v] — exact inverse on the representable range. *)
val decode : cfg -> int -> float

val encode_vec : cfg -> float array -> int array
val decode_vec : cfg -> int array -> float array

(** [l2_norm_encoded cfg v] — the L2 norm of the encoded integer vector,
    in encoded units (what the bound B of the integrity check measures). *)
val l2_norm_encoded : int array -> float
