(* Wire-decoder fuzzing: for every message type, take a genuine encoded
   frame and hammer it with seeded mutations (truncations, byte flips,
   length-prefix edits, garbage extensions). The totality invariant under
   test: decode_* never raises — every mutation yields Ok or a located
   Error, deterministically — and a server fed corrupted frames through
   the netsim transport never raises either: a sender whose frame is
   mutated before aggregation lands in C* while the honest clients'
   aggregate is byte-for-byte unaffected, and one whose agg frame is
   mutated stays in the sum.

   FUZZ_ITERS (default 500) bounds the per-message-type mutation count
   for quicker local iterations. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Client = Risefl_core.Client
module Server = Risefl_core.Server
module Serial = Risefl_core.Serial
module Driver = Risefl_core.Driver
module Point = Curve25519.Point

let iters =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 500)
  | None -> 500

let params = Params.make ~n_clients:4 ~max_malicious:1 ~d:8 ~k:4 ~m_factor:64.0 ~bound_b:300.0 ()
let setup = Setup.create ~label:"test-fuzz" params

(* one genuine frame of every message type, from a real protocol run *)
let commit_frame, flag_frame, proof_frame, agg_frame, broadcast_frame =
  let root = Prng.Drbg.create_string "fuzz-seed" in
  let clients =
    Array.init 4 (fun i -> Client.create setup ~id:(i + 1) (Prng.Drbg.fork root (string_of_int i)))
  in
  let server = Server.create setup (Prng.Drbg.fork root "server") in
  let pks = Array.map Client.public_key clients in
  Array.iter (fun c -> Client.install_directory c pks) clients;
  Server.install_directory server pks;
  let updates = Array.init 4 (fun i -> Array.init 8 (fun l -> (i * l) - 4)) in
  let commits = Array.mapi (fun i c -> Client.commit_round c ~round:1 ~update:updates.(i)) clients in
  Server.begin_round server ~round:1 ~commits:(Array.map Option.some commits);
  let flags = Array.map (fun c -> Client.receive_shares c ~round:1 ~msgs:commits) clients in
  let s, hs = Server.prepare_check server in
  let proof = Client.proof_round clients.(0) ~round:1 ~s ~hs in
  let agg = Client.agg_round clients.(0) ~honest:[ 1; 2; 3; 4 ] in
  ( Serial.encode_commit_msg commits.(0),
    Serial.encode_flag_msg flags.(0),
    Serial.encode_proof_msg proof,
    Serial.encode_agg_msg agg,
    Serial.encode_broadcast ~s ~hs )

(* a decoder reduced to its observable verdict, for determinism checks *)
type verdict = V_ok | V_err of int * string

let verdict_of decode frame =
  match decode frame with
  | Ok _ -> V_ok
  | Error (e : Serial.error) -> V_err (e.Serial.offset, e.Serial.reason)

let mutate drbg frame =
  let len = Bytes.length frame in
  match Prng.Drbg.uniform_int drbg 5 with
  | 0 ->
      (* truncate at a uniform offset *)
      Bytes.sub frame 0 (Prng.Drbg.uniform_int drbg (max 1 len))
  | 1 ->
      (* flip 1..8 random bytes *)
      let b = Bytes.copy frame in
      if len > 0 then
        for _ = 1 to 1 + Prng.Drbg.uniform_int drbg 8 do
          let pos = Prng.Drbg.uniform_int drbg len in
          let mask = 1 + Prng.Drbg.uniform_int drbg 255 in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask))
        done;
      b
  | 2 ->
      (* hostile length prefix: a 4-byte window set to 0xFFFFFFFF *)
      let b = Bytes.copy frame in
      if len >= 4 then begin
        let pos = Prng.Drbg.uniform_int drbg (len - 3) in
        Bytes.fill b pos 4 '\xff'
      end;
      b
  | 3 ->
      (* random u32 in a random window (random length-prefix edit) *)
      let b = Bytes.copy frame in
      if len >= 4 then begin
        let pos = Prng.Drbg.uniform_int drbg (len - 3) in
        for i = 0 to 3 do
          Bytes.set b (pos + i) (Char.chr (Prng.Drbg.uniform_int drbg 256))
        done
      end;
      b
  | _ ->
      (* append trailing garbage *)
      let extra = 1 + Prng.Drbg.uniform_int drbg 64 in
      Bytes.cat frame (Prng.Drbg.bytes drbg extra)

let fuzz_one name frame decode () =
  let drbg = Prng.Drbg.create_string ("fuzz/" ^ name) in
  let oks = ref 0 and errs = ref 0 in
  for i = 1 to iters do
    let mutated = mutate drbg frame in
    let v1 =
      try verdict_of decode mutated
      with exn ->
        Alcotest.failf "%s: decoder raised %s on mutation %d" name (Printexc.to_string exn) i
    in
    (* decoding is a pure function of the bytes *)
    let v2 = verdict_of decode mutated in
    if v1 <> v2 then Alcotest.failf "%s: non-deterministic verdict on mutation %d" name i;
    (match v1 with V_ok -> incr oks | V_err _ -> incr errs)
  done;
  (* the unmutated frame must still decode *)
  (match verdict_of decode frame with
  | V_ok -> ()
  | V_err (off, why) -> Alcotest.failf "%s: genuine frame rejected at %d: %s" name off why);
  (* sanity: mutations overwhelmingly produce located errors *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: some mutations rejected (ok=%d err=%d)" name !oks !errs)
    true (!errs > 0)

let unit_result decode frame = Result.map (fun _ -> ()) (decode frame)

let fuzz_garbage () =
  (* pure garbage of every small length, against every decoder *)
  let drbg = Prng.Drbg.create_string "fuzz/garbage" in
  let decoders =
    [
      ("commit", unit_result Serial.decode_commit);
      ("flag", unit_result Serial.decode_flag);
      ("proof", unit_result Serial.decode_proof);
      ("agg", unit_result Serial.decode_agg);
      ("broadcast", unit_result Serial.decode_broadcast_r);
    ]
  in
  for len = 0 to 96 do
    let frame = Prng.Drbg.bytes drbg len in
    List.iter
      (fun (name, decode) ->
        match decode frame with
        | Ok () | Error _ -> ()
        | exception exn ->
            Alcotest.failf "%s: raised %s on %d-byte garbage" name (Printexc.to_string exn) len)
      decoders
  done

let test_decompress_total () =
  (* point decompression is total on arbitrary byte strings *)
  let drbg = Prng.Drbg.create_string "fuzz/decompress" in
  for _ = 1 to 2000 do
    let b = Prng.Drbg.bytes drbg 32 in
    match Point.decompress_unchecked b with Some _ | None -> ()
  done;
  List.iter
    (fun len ->
      match Point.decompress_unchecked (Prng.Drbg.bytes drbg len) with
      | Some _ -> Alcotest.failf "decompress accepted a %d-byte string" len
      | None -> ())
    [ 0; 1; 31; 33; 64 ];
  (* scalars too *)
  for _ = 1 to 500 do
    match Curve25519.Scalar.of_bytes_opt (Prng.Drbg.bytes drbg 32) with Some _ | None -> ()
  done

let test_hostile_length_prefix_no_alloc () =
  (* a frame whose count field claims 2^32-1 elements must be rejected
     up-front (count exceeds remaining bytes), not by attempting the
     allocation: decode an 0xFFFFFFFF-count commit frame body *)
  let b = Buffer.create 64 in
  Buffer.add_char b '\xC1';
  Buffer.add_string b "\x01\x00\x00\x00";
  (* y count = 0xFFFFFFFF with only a handful of bytes behind it *)
  Buffer.add_string b "\xff\xff\xff\xff";
  Buffer.add_string b (String.make 40 'A');
  match Serial.decode_commit (Buffer.to_bytes b) with
  | Ok _ -> Alcotest.fail "hostile length prefix accepted"
  | Error e ->
      Alcotest.(check int) "rejected at the count field" 5 e.Serial.offset;
      Alcotest.(check bool) "reason mentions count" true
        (String.length e.Serial.reason > 0)

(* --- server under a corrupting transport ----------------------------- *)

let sum_updates updates ids =
  let d = Array.length updates.(0) in
  Array.init d (fun l -> List.fold_left (fun acc i -> acc + updates.(i - 1).(l)) 0 ids)

let mk_updates n d =
  let drbg = Prng.Drbg.create_string "fuzz-updates" in
  Array.init n (fun _ -> Array.init d (fun _ -> Prng.Drbg.uniform_int drbg 20 - 10))

let run_corrupted ~jobs =
  Parallel.set_default_jobs jobs;
  let updates = mk_updates 4 8 in
  (* scripted corruption: client 2's commit truncated, client 3's proof
     truncated — both frames are undecodable by construction *)
  let script =
    [
      ((1, Netsim.Commit, 2), [ Netsim.Truncate_at 17 ]);
      ((1, Netsim.Proof, 3), [ Netsim.Truncate_at 40 ]);
    ]
  in
  let transport = Netsim.create ~script ~seed:"fuzz-corrupt" () in
  let session = Driver.create_session setup ~seed:"fuzz-corrupt" in
  let outcome =
    Driver.run_round_outcome session ~endpoint:(Netsim.endpoint transport) ~updates
      ~behaviours:(Driver.honest_all 4) ~round:1
  in
  (updates, outcome)

let test_corrupted_senders_land_in_cstar () =
  let updates, outcome = run_corrupted ~jobs:1 in
  match outcome with
  | Driver.Completed stats ->
      Alcotest.(check (list int)) "corrupted senders flagged" [ 2; 3 ] stats.Driver.flagged;
      Alcotest.(check (list int)) "decode failures recorded" [ 2; 3 ] stats.Driver.decode_failures;
      (* the honest survivors' aggregate is exactly the fault-free sum of
         their updates: corruption cost the senders, not the round *)
      (match stats.Driver.aggregate with
      | None -> Alcotest.fail "aggregation failed"
      | Some agg ->
          Alcotest.(check (array int)) "honest aggregate unaffected" (sum_updates updates [ 1; 4 ]) agg)
  | o -> Alcotest.failf "expected completion, got: %s" (Driver.outcome_to_string o)

let test_verdicts_jobs_invariant () =
  (* the verdicts (C*, aggregate) are identical under jobs ∈ {1, 4} *)
  let extract = function
    | Driver.Completed stats -> (stats.Driver.flagged, stats.Driver.aggregate)
    | o -> Alcotest.failf "expected completion, got: %s" (Driver.outcome_to_string o)
  in
  let _, o1 = run_corrupted ~jobs:1 in
  let _, o4 = run_corrupted ~jobs:4 in
  Parallel.set_default_jobs 0;
  let f1, a1 = extract o1 and f4, a4 = extract o4 in
  Alcotest.(check (list int)) "flagged jobs-invariant" f1 f4;
  Alcotest.(check bool) "aggregate jobs-invariant" true (a1 = a4)

let test_mutated_commit_storm () =
  (* every client's commit mutated differently (flips + truncations via a
     uniform plan with high corruption rates): whatever happens, the
     server must not raise and the outcome must be typed *)
  let updates = mk_updates 4 8 in
  let plan = { Netsim.ideal with Netsim.p_flip = 0.8; p_truncate = 0.5 } in
  for trial = 1 to 5 do
    let transport = Netsim.create ~plan ~seed:(Printf.sprintf "storm-%d" trial) () in
    let session = Driver.create_session setup ~seed:(Printf.sprintf "storm-%d" trial) in
    match
      Driver.run_round_outcome session ~endpoint:(Netsim.endpoint transport) ~updates
        ~behaviours:(Driver.honest_all 4)
        ~round:1
    with
    | Driver.Completed _ | Driver.Aborted_insufficient_quorum _ | Driver.Aborted_decode _ -> ()
    | exception exn -> Alcotest.failf "trial %d raised %s" trial (Printexc.to_string exn)
  done

(* an undecodable agg frame costs its sender only its share: H is fixed
   before aggregation and every other share was computed over H, so the
   sender is not convicted and its update stays in the sum — a client
   garbling its own agg frame every round cannot stall the session *)
let test_garbled_agg_session () =
  let n = 7 and rounds = 4 in
  let params =
    Params.make ~n_clients:n ~max_malicious:3 ~d:8 ~k:2 ~m_factor:64.0 ~bound_b:300.0 ()
  in
  let setup = Setup.create ~label:"test-fuzz/garbled-agg" params in
  let updates = mk_updates n 8 in
  let script = List.init rounds (fun r -> ((r + 1, Netsim.Agg, 4), [ Netsim.Truncate_at 5 ])) in
  let net = Netsim.create ~script ~seed:"fuzz-garbled-agg" () in
  let report =
    Driver.run_session ~endpoint:(Netsim.endpoint net)
      (Driver.create_session setup ~seed:"fuzz-garbled-agg")
      ~updates_for:(fun _ -> updates) ~behaviours:(Driver.honest_all n) ~rounds
  in
  Alcotest.(check int) "rounds completed" rounds report.Driver.rounds_completed;
  let everyone = sum_updates updates (List.init n succ) in
  List.iter
    (fun (r, o) ->
      match o with
      | Driver.Completed stats ->
          Alcotest.(check (option (array int)))
            (Printf.sprintf "round %d sums all %d updates" r n)
            (Some everyone) stats.Driver.aggregate
      | o -> Alcotest.failf "round %d: %s" r (Driver.outcome_to_string o))
    report.Driver.round_outcomes;
  Alcotest.(check (list int)) "nobody banned" [] report.Driver.final_banned

let () =
  Alcotest.run "fuzz-wire"
    [
      ( "decoder-totality",
        [
          Alcotest.test_case "commit mutations" `Quick (fuzz_one "commit" commit_frame (unit_result Serial.decode_commit));
          Alcotest.test_case "flag mutations" `Quick (fuzz_one "flag" flag_frame (unit_result Serial.decode_flag));
          Alcotest.test_case "proof mutations" `Quick (fuzz_one "proof" proof_frame (unit_result Serial.decode_proof));
          Alcotest.test_case "agg mutations" `Quick (fuzz_one "agg" agg_frame (unit_result Serial.decode_agg));
          Alcotest.test_case "broadcast mutations" `Quick
            (fuzz_one "broadcast" broadcast_frame (unit_result Serial.decode_broadcast_r));
          Alcotest.test_case "pure garbage" `Quick fuzz_garbage;
          Alcotest.test_case "decompress total" `Quick test_decompress_total;
          Alcotest.test_case "hostile length prefix" `Quick test_hostile_length_prefix_no_alloc;
        ] );
      ( "server-under-corruption",
        [
          Alcotest.test_case "corrupted senders -> C*" `Quick test_corrupted_senders_land_in_cstar;
          Alcotest.test_case "verdicts jobs-invariant" `Quick test_verdicts_jobs_invariant;
          Alcotest.test_case "mutation storm, typed outcomes" `Quick test_mutated_commit_storm;
          Alcotest.test_case "garbled agg frame, 4-round session" `Quick test_garbled_agg_session;
        ] );
    ]
