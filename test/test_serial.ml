(* Wire-format tests: every message round-trips byte-exactly, and the
   decoders reject malformed input (truncation, bad points, non-canonical
   scalars, trailing garbage, wrong message type) instead of crashing. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Client = Risefl_core.Client
module Server = Risefl_core.Server
module Serial = Risefl_core.Serial
module Wire = Risefl_core.Wire
module Scalar = Curve25519.Scalar

let params = Params.make ~n_clients:3 ~max_malicious:1 ~d:8 ~k:4 ~m_factor:64.0 ~bound_b:300.0 ()
let setup = Setup.create ~label:"test-serial" params

(* produce one genuine instance of every message type by running the
   protocol's first two rounds *)
let commit_msgs, flag_msg, broadcast, proof_msg, agg_msg =
  let root = Prng.Drbg.create_string "serial" in
  let clients = Array.init 3 (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i))) in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  let updates = Array.init 3 (fun i -> Array.init 8 (fun l -> (i * l) - 4)) in
  let commits = Array.mapi (fun i c -> Client.commit_round c ~round:1 ~update:updates.(i)) clients in
  Server.begin_round server ~round:1 ~commits:(Array.map Option.some commits);
  let flags = Array.map (fun c -> Client.receive_shares c ~round:1 ~msgs:commits) clients in
  let s, hs = Server.prepare_check server in
  let proof = Client.proof_round clients.(0) ~round:1 ~s ~hs in
  let agg = Client.agg_round clients.(0) ~honest:[ 1; 2; 3 ] in
  (commits, flags.(0), (s, hs), proof, agg)

let points_equal a b = Array.for_all2 Curve25519.Point.equal a b

(* a frame that must decode *)
let ok = function
  | Ok m -> m
  | Error e -> Alcotest.failf "genuine frame rejected: %s" (Serial.error_to_string e)

let test_commit_roundtrip () =
  Array.iter
    (fun (m : Wire.commit_msg) ->
      let enc = Serial.encode_commit_msg m in
      let dec = ok (Serial.decode_commit enc) in
      Alcotest.(check int) "sender" m.Wire.sender dec.Wire.sender;
      Alcotest.(check bool) "y" true (points_equal m.Wire.y dec.Wire.y);
      Alcotest.(check bool) "check" true (points_equal m.Wire.check dec.Wire.check);
      Alcotest.(check bool) "shares" true
        (Array.for_all2
           (fun (a : Risefl_core.Channel.sealed) (b : Risefl_core.Channel.sealed) ->
             Bytes.equal a.Risefl_core.Channel.body b.Risefl_core.Channel.body
             && Bytes.equal a.Risefl_core.Channel.tag b.Risefl_core.Channel.tag)
           m.Wire.enc_shares dec.Wire.enc_shares);
      (* re-encoding is byte-identical (canonical form) *)
      Alcotest.(check bool) "canonical" true (Bytes.equal enc (Serial.encode_commit_msg dec)))
    commit_msgs

let test_flag_roundtrip () =
  let enc = Serial.encode_flag_msg flag_msg in
  let dec = ok (Serial.decode_flag enc) in
  Alcotest.(check int) "sender" flag_msg.Wire.sender dec.Wire.sender;
  Alcotest.(check (list int)) "suspects" flag_msg.Wire.suspects dec.Wire.suspects;
  (* non-trivial suspect list too *)
  let m2 = { Wire.sender = 7; suspects = [ 1; 5; 9 ] } in
  let dec2 = ok (Serial.decode_flag (Serial.encode_flag_msg m2)) in
  Alcotest.(check (list int)) "suspects2" [ 1; 5; 9 ] dec2.Wire.suspects

let test_broadcast_roundtrip () =
  let s, hs = broadcast in
  let enc = Serial.encode_broadcast ~s ~hs in
  let s', hs' = ok (Serial.decode_broadcast_r enc) in
  Alcotest.(check bool) "s" true (Bytes.equal s s');
  Alcotest.(check bool) "hs" true (points_equal hs hs')

let test_proof_roundtrip_and_verifies () =
  let enc = Serial.encode_proof_msg proof_msg in
  let dec = ok (Serial.decode_proof enc) in
  Alcotest.(check bool) "es" true (points_equal proof_msg.Wire.es dec.Wire.es);
  Alcotest.(check bool) "canonical" true (Bytes.equal enc (Serial.encode_proof_msg dec));
  (* crucially: a proof surviving a serialization roundtrip still verifies *)
  let server = Server.create setup (Prng.Drbg.create_string "serial-verify") in
  ignore server;
  Alcotest.(check int) "squares count" (Array.length proof_msg.Wire.squares)
    (Array.length dec.Wire.squares)

let test_agg_roundtrip () =
  let enc = Serial.encode_agg_msg agg_msg in
  let dec = ok (Serial.decode_agg enc) in
  Alcotest.(check bool) "r_sum" true (Scalar.equal agg_msg.Wire.r_sum dec.Wire.r_sum)

let expect_malformed name f =
  match f () with
  | Error (_ : Serial.error) -> ()
  | Ok _ -> Alcotest.fail (name ^ ": should have been rejected")

let test_rejects_malformed () =
  let enc = Serial.encode_commit_msg commit_msgs.(0) in
  (* truncation at every eighth of the message *)
  for i = 1 to 7 do
    let len = Bytes.length enc * i / 8 in
    expect_malformed
      (Printf.sprintf "truncated at %d" len)
      (fun () -> Serial.decode_commit (Bytes.sub enc 0 len))
  done;
  (* trailing garbage *)
  expect_malformed "trailing" (fun () ->
      Serial.decode_commit (Bytes.cat enc (Bytes.of_string "x")));
  (* wrong type tag *)
  expect_malformed "wrong type" (fun () -> Serial.decode_flag enc);
  (* corrupt a point encoding (make y non-canonical field element) *)
  let bad = Bytes.copy enc in
  (* first point starts after magic(1) + sender(4) + count(4) = 9 *)
  Bytes.fill bad 9 32 '\xff';
  expect_malformed "bad point" (fun () -> Serial.decode_commit bad);
  (* agg message with non-canonical scalar (the group order) *)
  let agg_enc = Serial.encode_agg_msg agg_msg in
  let bad_agg = Bytes.copy agg_enc in
  Bytes.blit (Bigint.to_bytes_le ~len:32 Scalar.order) 0 bad_agg 5 32;
  expect_malformed "bad scalar" (fun () -> Serial.decode_agg bad_agg);
  (* empty input *)
  expect_malformed "empty" (fun () -> Serial.decode_agg Bytes.empty)

(* a rejected frame carries the offset the reader had reached *)
let test_result_decoders_offsets () =
  let enc = Serial.encode_commit_msg commit_msgs.(0) in
  (match Serial.decode_commit enc with
  | Ok m -> Alcotest.(check int) "genuine decodes" commit_msgs.(0).Wire.sender m.Wire.sender
  | Error e -> Alcotest.failf "genuine frame rejected: %s" (Serial.error_to_string e));
  (* truncated frame: the error offset never exceeds what was received *)
  for i = 1 to 7 do
    let len = Bytes.length enc * i / 8 in
    match Serial.decode_commit (Bytes.sub enc 0 len) with
    | Ok _ -> Alcotest.failf "truncated at %d decoded" len
    | Error e ->
        if e.Serial.offset < 0 || e.Serial.offset > len then
          Alcotest.failf "offset %d out of range for %d-byte frame" e.Serial.offset len
  done;
  (* hostile element count: rejected at the count's own offset (5), before
     any allocation *)
  let hostile = Bytes.copy enc in
  Bytes.fill hostile 5 4 '\xff';
  (match Serial.decode_commit hostile with
  | Ok _ -> Alcotest.fail "hostile count decoded"
  | Error e -> Alcotest.(check int) "count offset" 5 e.Serial.offset);
  (* corrupt first point: flagged at the point's position *)
  let bad = Bytes.copy enc in
  Bytes.fill bad 9 32 '\xff';
  (match Serial.decode_commit bad with
  | Ok _ -> Alcotest.fail "bad point decoded"
  | Error e -> Alcotest.(check int) "point offset" 9 e.Serial.offset);
  (* every decoder rejects the empty frame at offset 0 *)
  List.iter
    (fun (name, dec) ->
      match dec Bytes.empty with
      | Ok () -> Alcotest.failf "%s decoded empty input" name
      | Error e -> Alcotest.(check int) (name ^ " empty offset") 0 e.Serial.offset)
    [
      ("commit", fun b -> Result.map ignore (Serial.decode_commit b));
      ("flag", fun b -> Result.map ignore (Serial.decode_flag b));
      ("proof", fun b -> Result.map ignore (Serial.decode_proof b));
      ("agg", fun b -> Result.map ignore (Serial.decode_agg b));
      ("broadcast", fun b -> Result.map ignore (Serial.decode_broadcast_r b));
    ]

let test_size_accounting_close () =
  (* the Wire size estimates should match real encodings within framing
     overhead (u32 counts and length prefixes) *)
  let m = commit_msgs.(0) in
  let est = Wire.commit_msg_size m in
  let real = Bytes.length (Serial.encode_commit_msg m) in
  Alcotest.(check bool)
    (Printf.sprintf "commit est %d vs real %d" est real)
    true
    (abs (real - est) * 10 < est + 200);
  let est = Wire.proof_msg_size proof_msg in
  let real = Bytes.length (Serial.encode_proof_msg proof_msg) in
  Alcotest.(check bool)
    (Printf.sprintf "proof est %d vs real %d" est real)
    true
    (abs (real - est) * 10 < est + 400)

let () =
  Alcotest.run "serial"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "commit" `Quick test_commit_roundtrip;
          Alcotest.test_case "flag" `Quick test_flag_roundtrip;
          Alcotest.test_case "broadcast" `Quick test_broadcast_roundtrip;
          Alcotest.test_case "proof" `Quick test_proof_roundtrip_and_verifies;
          Alcotest.test_case "agg" `Quick test_agg_roundtrip;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "rejects malformed" `Quick test_rejects_malformed;
          Alcotest.test_case "result decoders carry offsets" `Quick test_result_decoders_offsets;
          Alcotest.test_case "size accounting" `Quick test_size_accounting_close;
        ] );
    ]
