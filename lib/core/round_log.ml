type record =
  | Round_start of { round : int }
  | Snapshot of Wire.server_snapshot
  | Frame of { round : int; stage : Netsim.stage; sender : int; seq : int; frame : Bytes.t }
  | Stage_done of { round : int; stage : Netsim.stage }
  | Check of { round : int; s : Bytes.t }
  | Round_end of { round : int; cstar : int list; aggregate : int array option }
  | Epoch of Membership.epoch
      (** the round's frozen membership — cohort, post-rotation
          directory, standing deltas — written before [Round_start] so
          recovery re-enters the round under the exact cohort *)

type t = Store.Wal.t

let create ?fsync path = Store.Wal.open_ ?fsync path
let path = Store.Wal.path
let sync = Store.Wal.sync
let close = Store.Wal.close

let tag_round_start = 1
let tag_snapshot = 2
let tag_frame = 3
let tag_stage_done = 4
let tag_check = 5
let tag_round_end = 6
let tag_epoch = 7

(* membership deltas, tagged for the epoch record *)
let delta_kind = function
  | Membership.D_joined _ -> 1
  | Membership.D_left _ -> 2
  | Membership.D_rejoined _ -> 3
  | Membership.D_rotated _ -> 4
  | Membership.D_rotation_rejected _ -> 5

let delta_id = function
  | Membership.D_joined i | Membership.D_left i | Membership.D_rejoined i
  | Membership.D_rotated i | Membership.D_rotation_rejected i ->
      i

let delta_of ~kind ~id =
  match kind with
  | 1 -> Membership.D_joined id
  | 2 -> Membership.D_left id
  | 3 -> Membership.D_rejoined id
  | 4 -> Membership.D_rotated id
  | 5 -> Membership.D_rotation_rejected id
  | _ -> failwith "bad delta kind"

let encode = function
  | Round_start { round } ->
      let b = Serial.W.create () in
      Serial.W.u32 b round;
      (tag_round_start, Buffer.to_bytes b)
  | Snapshot snap -> (tag_snapshot, Serial.encode_snapshot snap)
  | Frame { round; stage; sender; seq; frame } ->
      let b = Serial.W.create () in
      Serial.W.u32 b round;
      Serial.W.u8 b (Netsim.stage_index stage);
      Serial.W.u32 b sender;
      Serial.W.u32 b seq;
      Serial.W.bytes b frame;
      (tag_frame, Buffer.to_bytes b)
  | Stage_done { round; stage } ->
      let b = Serial.W.create () in
      Serial.W.u32 b round;
      Serial.W.u8 b (Netsim.stage_index stage);
      (tag_stage_done, Buffer.to_bytes b)
  | Check { round; s } ->
      let b = Serial.W.create () in
      Serial.W.u32 b round;
      Serial.W.bytes b s;
      (tag_check, Buffer.to_bytes b)
  | Round_end { round; cstar; aggregate } ->
      let b = Serial.W.create () in
      Serial.W.u32 b round;
      Serial.W.u32 b (List.length cstar);
      List.iter (Serial.W.u32 b) cstar;
      (match aggregate with
      | None -> Serial.W.u8 b 0
      | Some agg ->
          Serial.W.u8 b 1;
          Serial.W.u32 b (Array.length agg);
          Array.iter (Serial.W.i32 b) agg);
      (tag_round_end, Buffer.to_bytes b)
  | Epoch ep ->
      let open Membership in
      let b = Serial.W.create () in
      Serial.W.u32 b ep.ep_round;
      Serial.W.u32 b (Array.length ep.ep_pks);
      Array.iter (fun pk -> Serial.W.bytes b (Curve25519.Point.compress pk)) ep.ep_pks;
      Array.iter (Serial.W.u32 b) ep.ep_gens;
      Serial.W.u32 b (Array.length ep.ep_cohort);
      Array.iter (Serial.W.u32 b) ep.ep_cohort;
      Serial.W.u32 b (List.length ep.ep_deltas);
      List.iter
        (fun d ->
          Serial.W.u8 b (delta_kind d);
          Serial.W.u32 b (delta_id d))
        ep.ep_deltas;
      Serial.W.u32 b (List.length ep.ep_convicts);
      List.iter (Serial.W.u32 b) ep.ep_convicts;
      (tag_epoch, Buffer.to_bytes b)

let append t r =
  let tag, payload = encode r in
  Store.Wal.append t ~tag payload

let r_stage r =
  match Netsim.stage_of_index (Serial.R.u8 r) with
  | Some s -> s
  | None -> failwith "bad stage index"

let decode tag payload =
  if tag = tag_snapshot then
    match Serial.decode_snapshot payload with
    | Ok snap -> Ok (Snapshot snap)
    | Error e -> Error e
  else
    Serial.total "wal-record"
      (fun r ->
        let record =
          if tag = tag_round_start then Round_start { round = Serial.R.u32 r }
          else if tag = tag_frame then begin
            let round = Serial.R.u32 r in
            let stage = r_stage r in
            let sender = Serial.R.u32 r in
            let seq = Serial.R.u32 r in
            let frame = Serial.R.bytes r in
            Frame { round; stage; sender; seq; frame }
          end
          else if tag = tag_stage_done then begin
            let round = Serial.R.u32 r in
            let stage = r_stage r in
            Stage_done { round; stage }
          end
          else if tag = tag_check then begin
            let round = Serial.R.u32 r in
            let s = Serial.R.bytes r in
            Check { round; s }
          end
          else if tag = tag_round_end then begin
            let round = Serial.R.u32 r in
            let nc = Serial.R.u32 r in
            if nc > 0xFFFF then failwith "oversized C* list";
            let cstar = List.init nc (fun _ -> Serial.R.u32 r) in
            let aggregate =
              match Serial.R.u8 r with
              | 0 -> None
              | 1 ->
                  let d = Serial.R.u32 r in
                  if d > 0x100000 then failwith "oversized aggregate";
                  Some (Array.init d (fun _ -> Serial.R.i32 r))
              | _ -> failwith "bad aggregate flag"
            in
            Round_end { round; cstar; aggregate }
          end
          else if tag = tag_epoch then begin
            let ep_round = Serial.R.u32 r in
            let n = Serial.R.u32 r in
            if n = 0 || n > 0xFFFF then failwith "bad epoch universe size";
            let ep_pks =
              Array.init n (fun _ ->
                  let raw = Serial.R.bytes r in
                  match Curve25519.Point.decompress raw with
                  | Some p -> p
                  | None -> failwith "bad epoch pk")
            in
            let ep_gens = Array.init n (fun _ -> Serial.R.u32 r) in
            let nc = Serial.R.u32 r in
            if nc > n then failwith "oversized epoch cohort";
            let ep_cohort =
              Array.init nc (fun _ ->
                  let id = Serial.R.u32 r in
                  if id < 1 || id > n then failwith "epoch cohort id out of range";
                  id)
            in
            let nd = Serial.R.u32 r in
            if nd > 0xFFFF then failwith "oversized epoch delta list";
            let ep_deltas =
              List.init nd (fun _ ->
                  let kind = Serial.R.u8 r in
                  let id = Serial.R.u32 r in
                  if id < 1 || id > n then failwith "epoch delta id out of range";
                  delta_of ~kind ~id)
            in
            let nv = Serial.R.u32 r in
            if nv > n then failwith "oversized epoch convict list";
            let ep_convicts =
              List.init nv (fun _ ->
                  let id = Serial.R.u32 r in
                  if id < 1 || id > n then failwith "epoch convict id out of range";
                  id)
            in
            Epoch
              Membership.{ ep_round; ep_cohort; ep_pks; ep_gens; ep_deltas; ep_convicts }
          end
          else failwith (Printf.sprintf "unknown record tag %d" tag)
        in
        Serial.R.finish r;
        record)
      payload

let replay file =
  let raw, status = Store.Wal.replay file in
  let out = ref [] in
  let rec go status = function
    | [] -> (List.rev !out, status)
    | (off, tag, payload) :: rest -> (
        match decode tag payload with
        | Ok r ->
            out := r :: !out;
            go status rest
        | Error e ->
            (* a CRC-clean frame whose body does not decode: treat like a
               torn tail — keep the good prefix, stop here *)
            (List.rev !out, Store.Wal.Torn { offset = off; reason = "record: " ^ e.Serial.reason })
        )
  in
  go status raw

let pending_round records =
  List.fold_left
    (fun acc r ->
      match r with
      | Round_start { round } -> Some round
      | Round_end { round; _ } when acc = Some round -> None
      | _ -> acc)
    None records

let resume_point records =
  match pending_round records with
  | Some round -> round
  | None ->
      List.fold_left
        (fun acc r -> match r with Round_end { round; _ } -> max acc (round + 1) | _ -> acc)
        1 records
