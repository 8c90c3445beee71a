(* lib/store unit + property tests: CRC32 vectors, append/replay
   round-trip, torn-tail tolerance, and CRC rejection of byte flips. *)

let fail fmt = Alcotest.failf fmt

let tmp () = Filename.temp_file "test-store" ".wal"

let with_wal ?fsync f =
  let path = tmp () in
  Sys.remove path;
  let wal = Store.Wal.open_ ?fsync path in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () ->
      f path wal)

let payload_of_string = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* CRC32 *)

let test_crc_vectors () =
  (* the standard zlib CRC-32 check values *)
  let check s expect =
    let got = Store.Crc32.digest (Bytes.of_string s) in
    if got <> expect then fail "crc32 %S: got %08x, want %08x" s got expect
  in
  check "" 0x00000000;
  check "123456789" 0xCBF43926;
  check "The quick brown fox jumps over the lazy dog" 0x414FA339

let test_crc_sub () =
  let b = Bytes.of_string "xxhelloyy" in
  if Store.Crc32.digest_sub b ~pos:2 ~len:5 <> Store.Crc32.digest (Bytes.of_string "hello") then
    fail "digest_sub must equal digest of the slice"

(* ------------------------------------------------------------------ *)
(* append / replay round-trip *)

let test_roundtrip () =
  with_wal @@ fun path wal ->
  let recs = [ (1, "alpha"); (255, ""); (7, String.make 300 'z'); (3, "tail") ] in
  List.iter (fun (tag, p) -> Store.Wal.append wal ~tag (payload_of_string p)) recs;
  Store.Wal.close wal;
  let got, status = Store.Wal.replay path in
  if status <> Store.Wal.Complete then fail "clean log must replay Complete";
  let got = List.map (fun (_, tag, p) -> (tag, Bytes.to_string p)) got in
  if got <> recs then fail "replay must return the appended records in order"

let test_missing_file () =
  let got, status = Store.Wal.replay "/nonexistent/risefl.wal" in
  if got <> [] || status <> Store.Wal.Complete then
    fail "missing file reads as an empty complete log"

let test_reopen_appends () =
  with_wal @@ fun path wal ->
  Store.Wal.append wal ~tag:1 (payload_of_string "one");
  Store.Wal.close wal;
  let wal2 = Store.Wal.open_ path in
  Store.Wal.append wal2 ~tag:2 (payload_of_string "two");
  Store.Wal.close wal2;
  let got, status = Store.Wal.replay path in
  if status <> Store.Wal.Complete || List.length got <> 2 then
    fail "reopening must append, not truncate"

(* ------------------------------------------------------------------ *)
(* torn tails and corruption *)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

let test_torn_tail () =
  with_wal @@ fun path wal ->
  Store.Wal.append wal ~tag:1 (payload_of_string "first");
  Store.Wal.append wal ~tag:2 (payload_of_string "second-record-body");
  Store.Wal.close wal;
  let full = (Unix.stat path).Unix.st_size in
  (* cut mid-way through the second record: every cut point from the end
     of record 1 up to full-1 must keep record 1 and report Torn *)
  let first_end = 4 + 4 + 1 + 5 in
  for cut = first_end to full - 1 do
    truncate_file path cut;
    let got, status = Store.Wal.replay path in
    (match status with
    | Store.Wal.Torn _ -> ()
    | Store.Wal.Complete ->
        if cut <> first_end then fail "cut at %d of %d must report a torn tail" cut full);
    match got with
    | [ (_, 1, p) ] when Bytes.to_string p = "first" -> ()
    | _ -> fail "cut at %d: the intact first record must survive" cut
  done

let test_byte_flip_rejected () =
  (* flipping any single byte of a record must not yield a Complete
     replay of the original contents: either the scan stops (Torn) or
     the flipped record is absent *)
  with_wal @@ fun path wal ->
  Store.Wal.append wal ~tag:9 (payload_of_string "payload-under-test");
  Store.Wal.close wal;
  let original = In_channel.with_open_bin path In_channel.input_all in
  let size = String.length original in
  for i = 0 to size - 1 do
    let mutated = Bytes.of_string original in
    Bytes.set mutated i (Char.chr (Char.code original.[i] lxor 0x01));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc mutated);
    let got, status = Store.Wal.replay path in
    match (got, status) with
    | [ (_, 9, p) ], Store.Wal.Complete when Bytes.to_string p = "payload-under-test" ->
        fail "byte flip at offset %d slipped past the CRC" i
    | _ -> ()
  done

let test_midlog_corruption () =
  (* the Epoch-record shape: a large record sandwiched mid-log (the
     elastic driver writes Epoch before Round_start). Corrupting any
     byte of it must stop the scan at the good prefix — the records
     behind it never replay, and the corrupt one never decodes as
     something else (a wrong cohort, at the Round_log layer). *)
  with_wal @@ fun path wal ->
  Store.Wal.append wal ~tag:1 (payload_of_string "round-end");
  let epoch_body = String.init 600 (fun i -> Char.chr (i mod 251)) in
  Store.Wal.append wal ~tag:8 (payload_of_string epoch_body);
  Store.Wal.append wal ~tag:2 (payload_of_string "round-start");
  Store.Wal.close wal;
  let original = In_channel.with_open_bin path In_channel.input_all in
  let first_end = 4 + 4 + 1 + String.length "round-end" in
  let mid_end = first_end + 4 + 4 + 1 + String.length epoch_body in
  (* byte-flip sweep over the middle record's span *)
  for i = first_end to mid_end - 1 do
    let mutated = Bytes.of_string original in
    Bytes.set mutated i (Char.chr (Char.code original.[i] lxor 0x41));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc mutated);
    let got, _status = Store.Wal.replay path in
    match got with
    | [ (_, 1, p) ] when Bytes.to_string p = "round-end" -> ()
    | _ -> fail "flip at %d: exactly the good prefix must survive" i
  done;
  (* truncation sweep: any cut inside the middle record keeps record 1
     (downward, so each truncate only ever shortens the file) *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
  for cut = mid_end - 1 downto first_end do
    truncate_file path cut;
    let got, status = Store.Wal.replay path in
    (match status with
    | Store.Wal.Torn _ -> ()
    | Store.Wal.Complete ->
        if cut <> first_end then fail "cut at %d must report a torn tail" cut);
    match got with
    | [ (_, 1, p) ] when Bytes.to_string p = "round-end" -> ()
    | _ -> fail "cut at %d: exactly the good prefix must survive" cut
  done

(* ------------------------------------------------------------------ *)
(* properties *)

let bytes_gen = QCheck2.Gen.(map Bytes.of_string (string_size (0 -- 512)))

let prop_roundtrip =
  QCheck2.Test.make ~name:"append/replay round-trip" ~count:30
    QCheck2.Gen.(list_size (0 -- 20) (pair (0 -- 255) bytes_gen))
    (fun recs ->
      let path = tmp () in
      Sys.remove path;
      let wal = Store.Wal.open_ ~fsync:false path in
      List.iter (fun (tag, p) -> Store.Wal.append wal ~tag p) recs;
      Store.Wal.close wal;
      let got, status = Store.Wal.replay path in
      Sys.remove path;
      status = Store.Wal.Complete
      && List.map (fun (_, tag, p) -> (tag, p)) got = recs)

let prop_truncation_keeps_prefix =
  QCheck2.Test.make ~name:"any truncation keeps a clean prefix" ~count:30
    QCheck2.Gen.(pair (list_size (1 -- 8) (pair (0 -- 255) bytes_gen)) (0 -- 10_000))
    (fun (recs, cut_raw) ->
      let path = tmp () in
      Sys.remove path;
      let wal = Store.Wal.open_ ~fsync:false path in
      List.iter (fun (tag, p) -> Store.Wal.append wal ~tag p) recs;
      Store.Wal.close wal;
      let size = (Unix.stat path).Unix.st_size in
      let cut = cut_raw mod (size + 1) in
      truncate_file path cut;
      let got, _status = Store.Wal.replay path in
      Sys.remove path;
      (* whatever replays must be a prefix of what was appended *)
      let rec is_prefix got recs =
        match (got, recs) with
        | [], _ -> true
        | (_, tag, p) :: g, (tag', p') :: r -> tag = tag' && Bytes.equal p p' && is_prefix g r
        | _ :: _, [] -> false
      in
      is_prefix got recs)

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "check vectors" `Quick test_crc_vectors;
          Alcotest.test_case "digest_sub" `Quick test_crc_sub;
        ] );
      ( "wal",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "reopen appends" `Quick test_reopen_appends;
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "byte flips rejected" `Quick test_byte_flip_rejected;
          Alcotest.test_case "mid-log corruption keeps the prefix" `Quick test_midlog_corruption;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_roundtrip; prop_truncation_keeps_prefix ] );
    ]
