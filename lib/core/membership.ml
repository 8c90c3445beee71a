module Scalar = Curve25519.Scalar
module Point = Curve25519.Point

type standing = Enrolled | Dropped | Banned | Rotated

let standing_to_string = function
  | Enrolled -> "enrolled"
  | Dropped -> "dropped"
  | Banned -> "banned"
  | Rotated -> "rotated"

(* --- key-rotation continuity proof ---------------------------------- *)

(* A rotation binds the new public key to the old one with a Schnorr
   signature under the OLD secret key over the (id, generation, pk_old,
   pk_new) statement: whoever holds sk_old vouches for pk_new. A forged
   rotation (no sk_old) fails the verification equation and convicts. *)
type rotation = {
  rot_id : int;  (** 1-based client id *)
  rot_gen : int;  (** the generation being rotated TO (>= 1) *)
  rot_new_pk : Point.t;
  rot_r : Point.t;  (** Schnorr commitment g^k *)
  rot_s : Scalar.t;  (** Schnorr response k + c·sk_old *)
}

let rotation_challenge ~id ~gen ~pk_old ~pk_new ~r =
  let h = Hashfn.Sha512.init () in
  Hashfn.Sha512.update_string h "risefl/rotate/v1";
  Hashfn.Sha512.update_string h (Printf.sprintf "/%d/%d/" id gen);
  Hashfn.Sha512.update h (Point.compress pk_old);
  Hashfn.Sha512.update h (Point.compress pk_new);
  Hashfn.Sha512.update h (Point.compress r);
  Scalar.of_bytes_wide (Hashfn.Sha512.finalize h)

let sign_rotation ~id ~gen ~sk_old ~pk_old ~new_pk ~nonce =
  let r = Point.mul_base nonce in
  let c = rotation_challenge ~id ~gen ~pk_old ~pk_new:new_pk ~r in
  { rot_id = id; rot_gen = gen; rot_new_pk = new_pk; rot_r = r; rot_s = Scalar.add nonce (Scalar.mul c sk_old) }

let verify_rotation rot ~pk_old =
  let c = rotation_challenge ~id:rot.rot_id ~gen:rot.rot_gen ~pk_old ~pk_new:rot.rot_new_pk ~r:rot.rot_r in
  Point.equal (Point.mul_base rot.rot_s) (Point.add rot.rot_r (Point.mul c pk_old))

(* --- membership epochs ----------------------------------------------- *)

type delta =
  | D_joined of int
  | D_left of int
  | D_rejoined of int
  | D_rotated of int
  | D_rotation_rejected of int

type epoch = {
  ep_round : int;
  ep_cohort : int array;  (** sorted 1-based ids of this round's active clients *)
  ep_pks : Point.t array;  (** the full universe directory, post-rotation *)
  ep_gens : int array;  (** per-client key generation (0 = the session key) *)
  ep_deltas : delta list;  (** standing changes vs the previous epoch *)
  ep_convicts : int list;  (** clients whose rotation proof was rejected *)
}

let epoch_cohort_size ep = Array.length ep.ep_cohort

type event = Leave of int | Join of int | Rotate of int

type t = {
  n : int;
  pks : Point.t array;  (** mutated in place as rotations are accepted *)
  gens : int array;
  present : bool array;
  ever_present : bool array;  (** distinguishes first join from rejoin *)
  banned_mirror : bool array;  (** rejected rotations: informational standing only *)
}

let create pks =
  let n = Array.length pks in
  if n < 1 then invalid_arg "Membership.create: empty directory";
  {
    n;
    pks = Array.copy pks;
    gens = Array.make n 0;
    present = Array.make n true;
    ever_present = Array.make n true;
    banned_mirror = Array.make n false;
  }

let n t = t.n

let standing t i =
  if i < 1 || i > t.n then invalid_arg "Membership.standing: bad id";
  if t.banned_mirror.(i - 1) then Banned
  else if not t.present.(i - 1) then Dropped
  else if t.gens.(i - 1) > 0 then Rotated
  else Enrolled

let cohort t =
  let out = ref [] in
  for i = t.n downto 1 do
    if t.present.(i - 1) then out := i :: !out
  done;
  Array.of_list !out

(* Apply one round's membership events and freeze the resulting epoch.
   Events are processed in list order; [rotation_for] materializes the
   continuity proof for an accepted-or-not rotation request (in-process
   it asks the client object; a forged proof is how tests model a key
   thief). A rejected rotation leaves the directory untouched and lands
   the client in [ep_convicts] — the server convicts it this round. *)
let advance t ~round ~events ~rotation_for =
  let deltas = ref [] and convicts = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Leave i when i >= 1 && i <= t.n && t.present.(i - 1) ->
          t.present.(i - 1) <- false;
          deltas := D_left i :: !deltas
      | Join i when i >= 1 && i <= t.n && not t.present.(i - 1) ->
          t.present.(i - 1) <- true;
          let d = if t.ever_present.(i - 1) then D_rejoined i else D_joined i in
          t.ever_present.(i - 1) <- true;
          deltas := d :: !deltas
      | Rotate i when i >= 1 && i <= t.n && t.present.(i - 1) -> (
          let gen = t.gens.(i - 1) + 1 in
          match rotation_for ~id:i ~gen with
          | None -> ()
          | Some rot ->
              if
                rot.rot_id = i && rot.rot_gen = gen
                && verify_rotation rot ~pk_old:t.pks.(i - 1)
              then begin
                t.pks.(i - 1) <- rot.rot_new_pk;
                t.gens.(i - 1) <- gen;
                deltas := D_rotated i :: !deltas
              end
              else begin
                t.banned_mirror.(i - 1) <- true;
                deltas := D_rotation_rejected i :: !deltas;
                convicts := i :: !convicts
              end)
      | Leave _ | Join _ | Rotate _ -> ())
    events;
  {
    ep_round = round;
    ep_cohort = cohort t;
    ep_pks = Array.copy t.pks;
    ep_gens = Array.copy t.gens;
    ep_deltas = List.rev !deltas;
    ep_convicts = List.rev !convicts;
  }

(* --- seeded churn schedules ------------------------------------------ *)

type spec = { p_leave : float; p_rejoin : float; p_rotate : float; min_cohort : int }

let default_spec = { p_leave = 0.2; p_rejoin = 0.5; p_rotate = 0.1; min_cohort = 3 }

let spec_to_string s =
  Printf.sprintf "leave=%g,rejoin=%g,rotate=%g,min=%d" s.p_leave s.p_rejoin s.p_rotate s.min_cohort

let spec_of_string str =
  let s = ref default_spec in
  let ok = ref (Ok ()) in
  String.split_on_char ',' str
  |> List.iter (fun kv ->
         if !ok = Ok () && String.trim kv <> "" then
           match String.index_opt kv '=' with
           | None -> ok := Error (Printf.sprintf "churn spec: expected key=value, got %S" kv)
           | Some e -> (
               let k = String.trim (String.sub kv 0 e) in
               let v = String.trim (String.sub kv (e + 1) (String.length kv - e - 1)) in
               let fl () =
                 match float_of_string_opt v with
                 | Some f when f >= 0.0 && f <= 1.0 -> Ok f
                 | _ -> Error (Printf.sprintf "churn spec: %s wants a rate in [0,1], got %S" k v)
               in
               match k with
               | "leave" -> (
                   match fl () with Ok f -> s := { !s with p_leave = f } | Error e -> ok := Error e)
               | "rejoin" -> (
                   match fl () with Ok f -> s := { !s with p_rejoin = f } | Error e -> ok := Error e)
               | "rotate" -> (
                   match fl () with Ok f -> s := { !s with p_rotate = f } | Error e -> ok := Error e)
               | "min" -> (
                   match int_of_string_opt v with
                   | Some m when m >= 1 -> s := { !s with min_cohort = m }
                   | _ -> ok := Error (Printf.sprintf "churn spec: min wants an int >= 1, got %S" v))
               | _ -> ok := Error (Printf.sprintf "churn spec: unknown key %S" k)));
  match !ok with Ok () -> Ok !s | Error e -> Error e

(* The per-round event lists are a pure function of (seed, spec, n,
   rounds): every consumer — driver, scripted twin, a remote client
   process — derives the identical schedule locally, so no membership
   bytes ever need to cross the wire. Round 1 is always the full cohort
   (enrollment happens against a known initial directory); each later
   round forks its own DRBG and sweeps the clients in id order. *)
let schedule ~seed spec ~n ~rounds =
  if spec.min_cohort > n then invalid_arg "Membership.schedule: min_cohort > n";
  let root = Prng.Drbg.create_string ("churn/" ^ seed) in
  let present = Array.make n true in
  let count = ref n in
  Array.init rounds (fun r0 ->
      let round = r0 + 1 in
      if round = 1 then []
      else begin
        let d = Prng.Drbg.fork root (Printf.sprintf "r%d" round) in
        let events = ref [] in
        for i = 1 to n do
          let roll = Prng.Drbg.float d in
          if present.(i - 1) then begin
            if roll < spec.p_leave && !count > spec.min_cohort then begin
              present.(i - 1) <- false;
              decr count;
              events := Leave i :: !events
            end
            else if Prng.Drbg.float d < spec.p_rotate then events := Rotate i :: !events
          end
          else if roll < spec.p_rejoin then begin
            present.(i - 1) <- true;
            incr count;
            events := Join i :: !events
          end
        done;
        List.rev !events
      end)
