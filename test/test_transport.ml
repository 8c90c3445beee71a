(* Socket-transport tests.

   Unit layer: frame reassembly from adversarial chunkings (including a
   hostile 0xFFFFFFFF length prefix, rejected before any allocation) and
   the proto codec round-trip.

   Process layer: a real serve/client deployment over a Unix-domain
   socket — the server and every client run in forked processes, talk
   through the event loop, and the parent asserts the outcomes are
   bit-identical to the in-process driver on the same seed. Covers the
   loopback round with a slow-loris client, a mid-stage client death
   degrading to the quorum path, a kill -9 mid-round with a WAL-backed
   restart, a restart at a sealed round boundary, an elastic cohort, and
   a client flagging the same honest dealer in every round. *)

module Params = Risefl_core.Params
module Setup = Risefl_core.Setup
module Driver = Risefl_core.Driver
module Round_log = Risefl_core.Round_log
module Frame = Risefl_transport.Frame
module Proto = Risefl_transport.Proto
module Evloop = Risefl_transport.Evloop
module Tserver = Risefl_transport.Server
module Tclient = Risefl_transport.Client
module Updates = Risefl_transport.Updates
module Scalar = Curve25519.Scalar

let fail fmt = Alcotest.failf fmt

(* ------------------------------------------------------------------ *)
(* frame reassembly *)

let feed_all t chunks =
  List.concat_map
    (fun (b, off, len) ->
      match Frame.Reassembler.feed t b ~off ~len with
      | Ok frames -> frames
      | Error e -> fail "unexpected reassembly error: %s" e)
    chunks

let test_frame_chunkings () =
  let bodies = [ Bytes.of_string "alpha"; Bytes.create 0; Bytes.of_string (String.make 300 'x') ] in
  let wire = Bytes.concat Bytes.empty (List.map Frame.encode bodies) in
  let total = Bytes.length wire in
  (* every chunk size from byte-at-a-time to one-shot must reassemble to
     the same three frames *)
  List.iter
    (fun step ->
      let t = Frame.Reassembler.create () in
      let chunks = ref [] in
      let pos = ref 0 in
      while !pos < total do
        let len = min step (total - !pos) in
        chunks := (wire, !pos, len) :: !chunks;
        pos := !pos + len
      done;
      let frames = feed_all t (List.rev !chunks) in
      if frames <> bodies then fail "chunk size %d reassembled differently" step;
      if Frame.Reassembler.pending t <> 0 then fail "leftover bytes after clean frames")
    [ 1; 2; 3; 7; 64; total ]

let test_frame_hostile_length () =
  (* a 0xFFFFFFFF length prefix must poison the stream at the header, not
     allocate 4 GiB *)
  let t = Frame.Reassembler.create () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_le evil 0 0xFFFFFFFFl;
  (match Frame.Reassembler.feed t evil ~off:0 ~len:4 with
  | Ok _ -> fail "hostile length prefix accepted"
  | Error _ -> ());
  (* the reassembler stays poisoned: further feeds keep failing *)
  match Frame.Reassembler.feed t (Bytes.make 8 'a') ~off:0 ~len:8 with
  | Ok _ -> fail "poisoned reassembler accepted more bytes"
  | Error _ -> ()

let test_frame_cap_boundary () =
  let t = Frame.Reassembler.create ~max_frame:64 () in
  let ok = Frame.encode (Bytes.make 64 'b') in
  (match Frame.Reassembler.feed t ok ~off:0 ~len:(Bytes.length ok) with
  | Ok [ b ] when Bytes.length b = 64 -> ()
  | Ok _ -> fail "cap-sized frame mangled"
  | Error e -> fail "cap-sized frame rejected: %s" e);
  let over = Frame.encode (Bytes.make 65 'c') in
  match Frame.Reassembler.feed t over ~off:0 ~len:(Bytes.length over) with
  | Ok _ -> fail "over-cap frame accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* proto codec *)

let test_proto_roundtrip () =
  let msgs =
    [
      Proto.Hello
        { client_id = 3; resume_round = 7; version = Proto.proto_version; epoch = 4; rejoin = true };
      Proto.Submit (Bytes.of_string "framed-bytes");
      Proto.Reveal_resp { dealer = 2; shares = None };
      Proto.Reveal_resp
        { dealer = 2; shares = Some [ (1, Scalar.of_int 42); (4, Scalar.of_int 7) ] };
      Proto.Bye;
      Proto.Hello_ok { n = 5; round = 2; version = Proto.proto_version; degree = 4; epoch = 2 };
      Proto.Ack { round = 1; stage = Netsim.Proof; sender = 4; seq = 0 };
      Proto.Commits { round = 1; commits = [| Bytes.of_string "c1"; Bytes.of_string "c2" |] };
      Proto.Cleared { round = 2; shares = [ (1, 3, Scalar.of_int 9) ] };
      Proto.Check { round = 1; bcast = Bytes.of_string "s-and-hs" };
      Proto.Honest { round = 1; honest = [ 1; 2; 4 ]; malicious = [ 3 ] };
      Proto.Reveal_req { dealer = 5; requests = [ 1; 2 ] };
      Proto.Result
        { round = 1; view = Proto.Rv_completed { cstar = [ 3 ]; aggregate = Some [| 1; -2 |] } };
      Proto.Result
        {
          round = 2;
          view = Proto.Rv_aborted_quorum { stage = "proof"; survivors = 2; needed = 3 };
        };
      Proto.Result { round = 3; view = Proto.Rv_aborted_decode [ 2; 5 ] };
      Proto.Reject { reason = "unknown client id" };
      Proto.Recover_req { round = 2; dropout = 3 };
      Proto.Recover_resp { round = 2; dropout = 3; share = None; mask = Scalar.of_int 11 };
      Proto.Recover_resp
        { round = 2; dropout = 3; share = Some (Scalar.of_int 5); mask = Scalar.of_int 11 };
      Proto.Reject_stale { current_round = 4; reason = "epoch 1 is stale" };
    ]
  in
  List.iter
    (fun msg ->
      match Proto.decode (Proto.encode msg) with
      | Ok got when got = msg -> ()
      | Ok _ -> fail "%s did not round-trip" (Proto.tag_name msg)
      | Error e ->
          fail "%s failed to decode: %s" (Proto.tag_name msg)
            (Risefl_core.Serial.error_to_string e))
    msgs;
  (* trailing garbage and every truncation must be rejected, not crash:
     one protocol version, so Hello and Hello_ok have no optional tail *)
  List.iter
    (fun (msg, len) ->
      let b = Proto.encode msg in
      if Bytes.length b <> len then
        fail "%s should be %d bytes, got %d" (Proto.tag_name msg) len (Bytes.length b);
      (match Proto.decode (Bytes.cat b (Bytes.of_string "x")) with
      | Ok _ -> fail "%s: trailing garbage accepted" (Proto.tag_name msg)
      | Error _ -> ());
      for cut = 0 to Bytes.length b - 1 do
        match Proto.decode (Bytes.sub b 0 cut) with
        | Ok _ -> fail "%s: truncation at %d accepted" (Proto.tag_name msg) cut
        | Error _ -> ()
      done)
    [
      (Proto.Hello { client_id = 1; resume_round = 1; version = 3; epoch = 2; rejoin = true }, 18);
      (Proto.Hello_ok { n = 5; round = 2; version = 3; degree = 4; epoch = 2 }, 21);
    ]

(* ------------------------------------------------------------------ *)
(* forked serve/client deployments *)

(* Unix.fork is illegal once any domain has been spawned (OCaml 5). The
   set-ups below derive generators through the Parallel pool and the
   in-process reference runs would use it too; the params here are tiny,
   so pin everything inline before any of it runs. *)
let () = Parallel.set_default_jobs 1

let n = 3
let m = 1
let d = 8
let k = 3
let bound = 900.0

let params = Params.make ~n_clients:n ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound ()
let setup = Setup.create ~label:"cli/test-transport" params

(* the ISSUE's loopback round runs at n=5 *)
let n5 = 5
let params5 = Params.make ~n_clients:n5 ~max_malicious:m ~d ~k ~m_factor:128.0 ~bound_b:bound ()
let setup5 = Setup.create ~label:"cli/test-transport-5" params5

(* the in-process reference on the same seed; [dropouts] is the twin of a
   client process that dies mid-round *)
let reference ?(setup = setup) ?(n = n) ~seed ?(dropouts = []) ~round () =
  let session = Driver.create_session setup ~seed in
  let behaviours = Updates.behaviours ~n ~attackers:[] in
  List.iter (fun i -> behaviours.(i - 1) <- Driver.Drop_out) dropouts;
  let rec go r =
    let updates = Updates.make ~n ~d ~bound ~seed ~attackers:[] ~round:r in
    let outcome = Driver.run_round_outcome session ~updates ~behaviours ~round:r in
    if r = round then outcome else go (r + 1)
  in
  go 1

let view_of = function
  | Driver.Completed stats ->
      Proto.Rv_completed { cstar = stats.Driver.flagged; aggregate = stats.Driver.aggregate }
  | Driver.Aborted_insufficient_quorum { stage; survivors; needed } ->
      Proto.Rv_aborted_quorum { stage; survivors; needed }
  | Driver.Aborted_decode ids -> Proto.Rv_aborted_decode ids

let tmp_name suffix =
  let f = Filename.temp_file "test-transport" suffix in
  Sys.remove f;
  f

(* fork [f]; the child marshals f () to [out] and never returns *)
let fork_child out f =
  match Unix.fork () with
  | 0 ->
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = open_out_bin out in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> pid

let read_child (type a) out : (a, string) result =
  let ic = open_in_bin out in
  let v = Marshal.from_channel ic in
  close_in ic;
  (try Sys.remove out with Sys_error _ -> ());
  v

let client_cfg ?(setup = setup) ~addr ~seed ~id ~rounds ?die_at ?(loris = false) ?churn
    ?(rejoin = false) ?behaviours () =
  let n = setup.Setup.params.Params.n_clients in
  {
    Tclient.addr;
    setup;
    seed;
    id;
    rounds;
    d;
    bound;
    behaviours = Option.value behaviours ~default:(Driver.honest_all n);
    deadline_s = 60.0;
    loris;
    die_at;
    max_connect_attempts = 200;
    topology = Risefl_topology.Topology.Full;
    churn;
    rejoin;
  }

let server_cfg ?(setup = setup) ~addr ~seed ~rounds ?wal ?crash ?stream ?churn
    ?(deadline = 60.0) () =
  {
    Tserver.addr;
    setup;
    seed;
    rounds;
    stage_deadline_s = deadline;
    wal_path = wal;
    crash;
    stream;
    topology = Risefl_topology.Topology.Full;
    churn;
  }

let wait_pid pid = ignore (Unix.waitpid [] pid)

(* one n=5 loopback round over a Unix socket, client 2 slow-lorising its
   submissions byte by byte: server and every client must report the
   verdict of the in-process driver, bit for bit *)
let test_serve_loopback_round () =
  let seed = "serve-loopback" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        let report = Tserver.serve (server_cfg ~setup:setup5 ~addr ~seed ~rounds:1 ()) in
        List.map (fun (r, o) -> (r, view_of o)) report.Tserver.outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n5 (fun i -> tmp_name (Printf.sprintf ".c%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        fork_child out (fun () ->
            Tclient.run (client_cfg ~setup:setup5 ~addr ~seed ~id ~rounds:1 ~loris:(id = 2) ())))
      cli_outs
  in
  wait_pid srv;
  List.iter wait_pid clis;
  let want = [ (1, view_of (reference ~setup:setup5 ~n:n5 ~seed ~round:1 ())) ] in
  (match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok _ -> fail "server outcome differs from the in-process driver"
  | Error e -> fail "server process failed: %s" e);
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got when got = want -> ()
      | Ok _ -> fail "client %d result differs from the in-process driver" (i + 1)
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs

(* client 3 dies just before its proof: the survivors must complete the
   round with the exact aggregate of the in-process dropout twin *)
let test_serve_client_death () =
  let seed = "serve-death" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        let report = Tserver.serve (server_cfg ~addr ~seed ~rounds:1 ~deadline:4.0 ()) in
        List.map (fun (r, o) -> (r, view_of o)) report.Tserver.outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".d%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        let die_at = if id = 3 then Some (1, Netsim.Proof) else None in
        fork_child out (fun () ->
            Tclient.run (client_cfg ~addr ~seed ~id ~rounds:1 ?die_at ())))
      cli_outs
  in
  wait_pid srv;
  List.iter wait_pid clis;
  (* the twin: in-process client 3 never speaks; C* and the survivor
     aggregate must match (a commit-silent twin and a proof-silent death
     end in the same verdict: 3 convicted, survivors aggregated) *)
  let want = [ (1, view_of (reference ~seed ~dropouts:[ 3 ] ~round:1 ())) ] in
  match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok got ->
      fail "quorum path after client death differs from the dropout twin (got %d round(s))"
        (List.length got)
  | Error e -> fail "server process failed: %s" e

(* kill -9 mid-round, then a fresh serve on the same WAL: the restarted
   server must finish the round bit-identically to the uncrashed twin *)
let test_serve_kill_restart () =
  let seed = "serve-kill" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let wal = tmp_name ".wal" in
  let srv_out = tmp_name ".srv" in
  let first =
    fork_child srv_out (fun () ->
        ignore
          (Tserver.serve
             (server_cfg ~addr ~seed ~rounds:1 ~wal
                ~crash:(1, Netsim.Proof, Driver.Stage_frame 1) ()));
        [])
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".k%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        fork_child out (fun () -> Tclient.run (client_cfg ~addr ~seed ~id ~rounds:1 ())))
      cli_outs
  in
  (* the first server SIGKILLs itself mid-proof *)
  let _, status = Unix.waitpid [] first in
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> fail "the crashing server should die by SIGKILL");
  (* restart on the same WAL while the clients retry under backoff *)
  let srv2_out = tmp_name ".srv2" in
  let second =
    fork_child srv2_out (fun () ->
        let report = Tserver.serve (server_cfg ~addr ~seed ~rounds:1 ~wal ()) in
        (report.Tserver.resumed_round, List.map (fun (r, o) -> (r, view_of o)) report.Tserver.outcomes))
  in
  wait_pid second;
  List.iter wait_pid clis;
  let want = [ (1, view_of (reference ~seed ~round:1 ())) ] in
  (match
     (read_child srv2_out : (int option * (int * Proto.result_view) list, string) result)
   with
  | Ok (Some 1, got) when got = want -> ()
  | Ok (resumed, _) ->
      fail "restart did not resume round 1 bit-identically (resumed_round = %s)"
        (match resumed with Some r -> string_of_int r | None -> "None")
  | Error e -> fail "restarted server failed: %s" e);
  (* every client converged on the same verdict despite the crash *)
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got when got = want -> ()
      | Ok _ -> fail "client %d diverged across the crash" (i + 1)
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs;
  (try Sys.remove srv_out with Sys_error _ -> ());
  (try Sys.remove wal with Sys_error _ -> ())

(* a serve that stops after round 2 and a second serve on the same WAL
   that carries on to round 3: the restart must open round 3 where an
   uninterrupted run does — the same check string, not a redraw of an
   earlier round's — with the same verdicts *)
let test_serve_boundary_restart () =
  let seed = "serve-boundary" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let wal = tmp_name ".wal" in
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".b%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        fork_child out (fun () -> Tclient.run (client_cfg ~addr ~seed ~id:(i + 1) ~rounds:3 ())))
      cli_outs
  in
  let serve_to rounds =
    let out = tmp_name ".srv" in
    wait_pid
      (fork_child out (fun () ->
           let report = Tserver.serve (server_cfg ~addr ~seed ~rounds ~wal ()) in
           List.map (fun (r, o) -> (r, view_of o)) report.Tserver.outcomes));
    match (read_child out : ((int * Proto.result_view) list, string) result) with
    | Ok got -> got
    | Error e -> fail "server (rounds %d) failed: %s" rounds e
  in
  let first = serve_to 2 in
  let got = first @ serve_to 3 in
  List.iter wait_pid clis;
  List.iter (fun out -> try Sys.remove out with Sys_error _ -> ()) cli_outs;
  let checks path =
    List.filter_map
      (function Round_log.Check { round; s } -> Some (round, s) | _ -> None)
      (fst (Round_log.replay path))
  in
  let ref_wal = tmp_name ".wal" in
  let w = Round_log.create ~fsync:false ref_wal in
  let want =
    Driver.run_session (Driver.create_session setup ~seed) ~wal:w
      ~updates_for:(fun r -> Updates.make ~n ~d ~bound ~seed ~attackers:[] ~round:r)
      ~behaviours:(Updates.behaviours ~n ~attackers:[]) ~rounds:3
  in
  Round_log.close w;
  let got_s = checks wal and want_s = checks ref_wal in
  Sys.remove wal;
  Sys.remove ref_wal;
  if got <> List.map (fun (r, o) -> (r, view_of o)) want.Driver.round_outcomes then
    fail "the split deployment's verdicts differ from the uninterrupted session";
  if got_s <> want_s then fail "the restarted server drew a different round-3 check string"

(* a rule-2 reveal belongs to its round: client 3 falsely flags client 1
   in every round, so dealer 1 is asked for the same recipient's share
   three times and must answer each round with that round's share. The
   server's and every client's verdicts must equal the in-process
   session with the same behaviours, which convicts nobody. *)
let test_serve_false_flags () =
  let seed = "serve-false-flags" in
  let rounds = 3 in
  let behaviours = Driver.honest_all n in
  behaviours.(2) <- Driver.False_flags [ 1 ];
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        let report = Tserver.serve (server_cfg ~addr ~seed ~rounds ()) in
        List.map (fun (r, o) -> (r, view_of o)) report.Tserver.outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".f%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        fork_child out (fun () ->
            Tclient.run (client_cfg ~addr ~seed ~id:(i + 1) ~rounds ~behaviours ())))
      cli_outs
  in
  wait_pid srv;
  List.iter wait_pid clis;
  let report =
    Driver.run_session (Driver.create_session setup ~seed)
      ~updates_for:(fun r -> Updates.make ~n ~d ~bound ~seed ~attackers:[] ~round:r)
      ~behaviours ~rounds
  in
  let want = List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes in
  List.iter
    (fun (r, v) ->
      match v with
      | Proto.Rv_completed { cstar = []; aggregate = Some _ } -> ()
      | _ -> fail "reference round %d convicted someone or failed" r)
    want;
  (match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok _ -> fail "server verdicts differ from the in-process session"
  | Error e -> fail "server process failed: %s" e);
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got when got = want -> ()
      | Ok _ -> fail "client %d verdicts differ from the in-process session" (i + 1)
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs

(* elastic deployment: server and all five clients derive the seeded
   churn schedule locally (no membership bytes on the wire); out-of-cohort
   clients sit rounds out, one client enrolls with the rejoin bit set, and
   the whole run must match the in-process elastic session *)
let test_serve_churn () =
  let seed = "serve-churn" in
  let spec =
    { Risefl_core.Membership.p_leave = 0.4; p_rejoin = 0.6; p_rotate = 0.3; min_cohort = 3 }
  in
  let rounds = 3 in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        let report =
          Tserver.serve (server_cfg ~setup:setup5 ~addr ~seed ~rounds ~churn:spec ())
        in
        List.map (fun (r, o) -> (r, view_of o)) report.Tserver.outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n5 (fun i -> tmp_name (Printf.sprintf ".e%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        fork_child out (fun () ->
            Tclient.run
              (client_cfg ~setup:setup5 ~addr ~seed ~id ~rounds ~churn:spec
                 ~rejoin:(id = 4) ())))
      cli_outs
  in
  wait_pid srv;
  List.iter wait_pid clis;
  let want =
    let session = Driver.create_session setup5 ~seed in
    let report =
      Driver.run_session session
        ~cohort_for:(Driver.churn_cohort_for session ~spec ~rounds)
        ~updates_for:(fun r -> Updates.make ~n:n5 ~d ~bound ~seed ~attackers:[] ~round:r)
        ~behaviours:(Updates.behaviours ~n:n5 ~attackers:[])
        ~rounds
    in
    (* the schedule must actually churn, or this differential is vacuous *)
    if not (List.exists (fun (_, size) -> size < n5) report.Driver.cohort_sizes) then
      fail "seed %S never shrinks the cohort — pick a churnier seed" seed;
    List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes
  in
  (match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok _ -> fail "elastic deployment diverged from the in-process elastic session"
  | Error e -> fail "server process failed: %s" e);
  (* a client sitting a round out may miss that round's broadcast; every
     result it does report must agree with the reference *)
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got ->
          List.iter
            (fun (r, v) ->
              match List.assoc_opt r want with
              | Some v' when v = v' -> ()
              | _ -> fail "client %d round %d diverged from the elastic reference" (i + 1) r)
            got
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs

let () =
  Alcotest.run "transport"
    [
      ( "frame",
        [
          Alcotest.test_case "chunked reassembly" `Quick test_frame_chunkings;
          Alcotest.test_case "hostile length prefix" `Quick test_frame_hostile_length;
          Alcotest.test_case "cap boundary" `Quick test_frame_cap_boundary;
        ] );
      ("proto", [ Alcotest.test_case "round-trip" `Quick test_proto_roundtrip ]);
      ( "deployment",
        [
          Alcotest.test_case "loopback round (slow-loris)" `Slow test_serve_loopback_round;
          Alcotest.test_case "mid-stage client death" `Slow test_serve_client_death;
          Alcotest.test_case "kill -9 and WAL restart" `Slow test_serve_kill_restart;
          Alcotest.test_case "restart at a sealed boundary" `Slow test_serve_boundary_restart;
          Alcotest.test_case "elastic churn deployment" `Slow test_serve_churn;
          Alcotest.test_case "false flags across rounds" `Slow test_serve_false_flags;
        ] );
    ]
