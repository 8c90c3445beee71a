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
   restart, a silent attacker across a crash and restart under a short
   stage deadline, a restart at a sealed round boundary, a reconnect
   that replays the previous round's Result, an elastic cohort, a
   k-regular share graph, and a client flagging the same honest dealer
   in every round. Clients take the round count, the stage deadline,
   the topology and the churn spec from the server's announcement. *)

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

let session_static = { Proto.deadline_s = 15.0; rounds = 3; degree = 4; churn = None }

(* rates that print the same at %g but differ in their low bits: the
   IEEE encoding must carry them exactly *)
let session_churn =
  {
    Proto.deadline_s = 2.5;
    rounds = 5;
    degree = 0;
    churn =
      Some
        {
          Risefl_core.Membership.p_leave = 0.1 +. 0.2;
          p_rejoin = 0.6;
          p_rotate = 1.0 /. 3.0;
          min_cohort = 4;
        };
  }

let test_proto_roundtrip () =
  let msgs =
    [
      Proto.Hello { client_id = 3; resume_round = 7; version = Proto.proto_version };
      Proto.Submit (Bytes.of_string "framed-bytes");
      Proto.Reveal_resp { dealer = 2; shares = None };
      Proto.Reveal_resp
        { dealer = 2; shares = Some [ (1, Scalar.of_int 42); (4, Scalar.of_int 7) ] };
      Proto.Bye;
      Proto.Hello_ok { round = 2; version = Proto.proto_version; session = session_static };
      Proto.Hello_ok { round = 2; version = Proto.proto_version; session = session_churn };
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
      Proto.Alive;
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
     one protocol version, so Hello and Hello_ok have no optional tail.
     The session record is 17 bytes static (D as 8 IEEE bytes, rounds,
     degree, the churn tag) and 45 with a churn spec (three 8-byte rates
     and the minimum cohort). *)
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
      (Proto.Hello { client_id = 1; resume_round = 1; version = 3 }, 13);
      (Proto.Hello_ok { round = 2; version = 4; session = session_static }, 26);
      (Proto.Hello_ok { round = 2; version = 4; session = session_churn }, 54);
      (Proto.Alive, 1);
    ];
  (* an announcement the client could not follow is undecodable, and
     the server refuses to make it: a rate outside [0, 1], a NaN rate, a
     non-positive or infinite deadline, zero rounds *)
  let churn = Option.get session_churn.Proto.churn in
  List.iter
    (fun (what, session) ->
      if Proto.session_error session = None then fail "a session with %s passed the check" what;
      let msg = Proto.Hello_ok { round = 1; version = 4; session } in
      match Proto.decode (Proto.encode msg) with
      | Ok _ -> fail "announcement with %s decoded" what
      | Error _ -> ())
    [
      ("a leave rate of 1.5", { session_churn with churn = Some { churn with p_leave = 1.5 } });
      ("a NaN rotate rate", { session_churn with churn = Some { churn with p_rotate = nan } });
      ("a zero deadline", { session_static with deadline_s = 0.0 });
      ("a negative deadline", { session_static with deadline_s = -1.0 });
      ("an infinite deadline", { session_static with deadline_s = infinity });
      ("zero rounds", { session_static with rounds = 0 });
    ];
  List.iter
    (fun s -> if Proto.session_error s <> None then fail "a valid session failed the check")
    [ session_static; session_churn ]

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
let reference ?(setup = setup) ?(n = n) ~seed ?(attackers = []) ?(dropouts = []) ~round () =
  let session = Driver.create_session setup ~seed in
  let behaviours = Updates.behaviours ~n ~attackers in
  List.iter (fun i -> behaviours.(i - 1) <- Driver.Drop_out) dropouts;
  let rec go r =
    let updates = Updates.make ~n ~d ~bound ~seed ~attackers ~round:r in
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

(* a client knows only its own security parameters, seed and id: the
   rounds, deadline, topology and churn come from the server *)
let client_cfg ?(setup = setup) ~addr ~seed ~id ?die_at ?(loris = false) ?behaviours () =
  let n = setup.Setup.params.Params.n_clients in
  {
    Tclient.addr;
    setup;
    seed;
    id;
    behaviours = Option.value behaviours ~default:(Driver.honest_all n);
    loris;
    die_at;
    max_connect_attempts = 200;
  }

let server_cfg ?(setup = setup) ~addr ~seed ~rounds ?wal ?crash ?stream ?churn
    ?(topology = Risefl_topology.Topology.Full) ?(deadline = 60.0) () =
  {
    Tserver.addr;
    setup;
    seed;
    rounds;
    stage_deadline_s = deadline;
    wal_path = wal;
    crash;
    stream;
    topology;
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
        let report, _ = Tserver.serve (server_cfg ~setup:setup5 ~addr ~seed ~rounds:1 ()) in
        List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n5 (fun i -> tmp_name (Printf.sprintf ".c%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        fork_child out (fun () ->
            Tclient.run (client_cfg ~setup:setup5 ~addr ~seed ~id ~loris:(id = 2) ())))
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
        let report, _ = Tserver.serve (server_cfg ~addr ~seed ~rounds:1 ~deadline:4.0 ()) in
        List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".d%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        let die_at = if id = 3 then Some (1, Netsim.Proof) else None in
        fork_child out (fun () ->
            Tclient.run (client_cfg ~addr ~seed ~id ?die_at ())))
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
        fork_child out (fun () -> Tclient.run (client_cfg ~addr ~seed ~id ())))
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
        let report, _ = Tserver.serve (server_cfg ~addr ~seed ~rounds:1 ~wal ()) in
        (report.Driver.resumed_round, List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes))
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

(* The stage deadline is the server's alone. Serve at D = 2 s with
   client 2 going silent at the proof stage (the rational attacker: its
   sampled projections would betray the 50x update) and a kill -9 at
   proof:1. The restarted server waits the silent client out for a fresh
   D; the honest clients, waiting 2·D from its announcement, ride that
   out, and every client must report the in-process verdict. *)
let test_serve_silent_restart () =
  let seed = "serve-silent" in
  let attackers = [ 2 ] in
  let behaviours = Updates.behaviours ~n ~attackers in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let wal = tmp_name ".wal" in
  let srv_out = tmp_name ".srv" in
  let first =
    fork_child srv_out (fun () ->
        ignore
          (Tserver.serve
             (server_cfg ~addr ~seed ~rounds:1 ~wal ~deadline:2.0
                ~crash:(1, Netsim.Proof, Driver.Stage_frame 1) ()));
        [])
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".s%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        fork_child out (fun () -> Tclient.run (client_cfg ~addr ~seed ~id:(i + 1) ~behaviours ())))
      cli_outs
  in
  let _, status = Unix.waitpid [] first in
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> fail "the crashing server should die by SIGKILL");
  let srv2_out = tmp_name ".srv2" in
  wait_pid
    (fork_child srv2_out (fun () ->
         let report, _ = Tserver.serve (server_cfg ~addr ~seed ~rounds:1 ~wal ~deadline:2.0 ()) in
         List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes));
  List.iter wait_pid clis;
  (try Sys.remove srv_out with Sys_error _ -> ());
  (try Sys.remove wal with Sys_error _ -> ());
  let want = [ (1, view_of (reference ~seed ~attackers ~round:1 ())) ] in
  (match want with
  | [ (_, Proto.Rv_completed { cstar = [ 2 ]; aggregate = Some _ }) ] -> ()
  | _ -> fail "the reference should convict the silent attacker alone");
  (match (read_child srv2_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok _ -> fail "the restarted server diverged from the in-process round"
  | Error e -> fail "restarted server failed: %s" e);
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got when got = want -> ()
      | Ok _ -> fail "client %d gave up on the round across the restart" (i + 1)
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs

(* The server's sub-exchanges run past the stage deadline. At D = 2 s,
   client 5 dies before the flag stage, so the server waits D for its
   flag. Client 2 corrupts its share to client 1 and client 3 its share
   to client 4 (one flag each: a client flagging more than m = 1 dealers
   convicts itself); both send their flags and are then stopped
   (SIGSTOP), so each flagged dealer's reveal waits D unanswered: 3·D
   between the Commits and the Check broadcasts. The honest clients 1
   and 4 give up after 2·D without a word from the server; the Alive
   before each reveal keeps them in the round, and each must report the
   in-process verdict with 2, 3 and 5 silent. *)
let test_serve_reveal_timeouts () =
  let seed = "serve-reveal-timeouts" in
  let silent = [ 2; 3; 5 ] in
  let behaviours = Driver.honest_all n5 in
  behaviours.(1) <- Driver.Bad_share_to [ 1 ];
  behaviours.(2) <- Driver.Bad_share_to [ 4 ];
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        let report, _ =
          Tserver.serve (server_cfg ~setup:setup5 ~addr ~seed ~rounds:1 ~deadline:2.0 ())
        in
        List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n5 (fun i -> tmp_name (Printf.sprintf ".v%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        let die_at = if id = 5 then Some (1, Netsim.Flag) else None in
        fork_child out (fun () ->
            Tclient.run (client_cfg ~setup:setup5 ~addr ~seed ~id ?die_at ~behaviours ())))
      cli_outs
  in
  (* client 5 exits on the Commits broadcast; the server's flag stage
     then runs D, long after the dealers' own flags are in *)
  wait_pid (List.nth clis 4);
  Unix.sleepf 0.5;
  let dealers = [ List.nth clis 1; List.nth clis 2 ] in
  List.iter (fun pid -> Unix.kill pid Sys.sigstop) dealers;
  wait_pid srv;
  List.iter
    (fun pid ->
      Unix.kill pid Sys.sigkill;
      wait_pid pid)
    dealers;
  wait_pid (List.nth clis 0);
  wait_pid (List.nth clis 3);
  let want =
    [ (1, view_of (reference ~setup:setup5 ~n:n5 ~seed ~dropouts:silent ~round:1 ())) ]
  in
  (match want with
  | [ (_, Proto.Rv_completed { cstar = [ 2; 3; 5 ]; aggregate = Some _ }) ] -> ()
  | _ -> fail "the reference should convict the three silent clients alone");
  (match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok _ -> fail "the server diverged from the in-process round"
  | Error e -> fail "server process failed: %s" e);
  List.iteri
    (fun i out ->
      if List.mem (i + 1) silent then (try Sys.remove out with Sys_error _ -> ())
      else
        match (read_child out : ((int * Proto.result_view) list, string) result) with
        | Ok got when got = want -> ()
        | Ok _ -> fail "client %d gave up on the round during the reveals" (i + 1)
        | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs

(* An announcement the client cannot follow ends the client at once:
   the server refuses to make one (a zero deadline fails before it
   listens), and a listener that sends one anyway — here a bare peer
   announcing a zero deadline, then one announcing a valid session under
   the previous protocol revision — fails the client's handshake instead
   of leaving it to spin. *)
let test_bad_announcement () =
  let seed = "bad-announcement" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  (match Tserver.serve (server_cfg ~addr ~seed ~rounds:1 ~deadline:0.0 ()) with
  | _ -> fail "serve accepted a zero stage deadline"
  | exception Invalid_argument _ -> ());
  let path = match addr with Evloop.Unix_sock p -> p | Evloop.Tcp _ -> assert false in
  List.iter
    (fun (what, deadline_s) ->
      let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lsock (Unix.ADDR_UNIX path);
      Unix.listen lsock 1;
      let peer =
        match Unix.fork () with
        | 0 ->
            let fd, _ = Unix.accept lsock in
            let session = { Proto.deadline_s; rounds = 1; degree = 0; churn = None } in
            let wire = Frame.encode (Proto.encode (Proto.Hello_ok { round = 1; version = 4; session })) in
            ignore (Unix.write fd wire 0 (Bytes.length wire));
            Unix.sleepf 10.0;
            Unix._exit 0
        | pid -> pid
      in
      Unix.close lsock;
      let t0 = Unix.gettimeofday () in
      (match Tclient.run (client_cfg ~addr ~seed ~id:1 ()) with
      | _ -> fail "the client followed %s" what
      | exception Failure _ -> ());
      Unix.kill peer Sys.sigkill;
      wait_pid peer;
      (try Sys.remove path with Sys_error _ -> ());
      if Unix.gettimeofday () -. t0 > 5.0 then fail "the client took over 5 s to refuse %s" what)
    [ ("an undecodable announcement", 0.0); ("a revision-4 announcement", 15.0) ]

(* a bare protocol peer: connect, say Hello as [id], and collect the
   server's envelopes until [stop] holds or [timeout_s] passes *)
let raw_hello addr ~id ~resume_round ~stop ~timeout_s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Evloop.sockaddr_of_addr addr);
  let send msg =
    let wire = Frame.encode (Proto.encode msg) in
    ignore (Unix.write fd wire 0 (Bytes.length wire))
  in
  send
    (Proto.Hello { client_id = id; resume_round; version = Proto.proto_version });
  let reasm = Frame.Reassembler.create () in
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go acc =
    if stop acc || Unix.gettimeofday () >= deadline then acc
    else
      match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> go acc
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> acc
          | len -> (
              match Frame.Reassembler.feed reasm buf ~off:0 ~len with
              | Ok bodies ->
                  go (acc @ List.filter_map (fun b -> Result.to_option (Proto.decode b)) bodies)
              | Error e -> fail "reassembly error from the server: %s" e))
  in
  let msgs = go [] in
  send Proto.Bye;
  Unix.close fd;
  msgs

let bcast_round = function
  | Proto.Commits { round; _ }
  | Proto.Cleared { round; _ }
  | Proto.Check { round; _ }
  | Proto.Honest { round; _ }
  | Proto.Result { round; _ } ->
      Some round
  | _ -> None

(* The server keeps the broadcasts of the round in flight and of the one
   before it. Client 2 dies just before round 3's commit, so the server
   waits out round 3's commit stage for it; a connection that registers
   as client 2 in that window, resuming from round 1, must get round 2's
   Result replayed and nothing of round 1. *)
let test_serve_replay_window () =
  let seed = "serve-replay" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        ignore (Tserver.serve (server_cfg ~addr ~seed ~rounds:3 ~deadline:3.0 ()));
        [])
  in
  Unix.sleepf 0.2;
  let clis =
    List.init n (fun i ->
        let id = i + 1 in
        let die_at = if id = 2 then Some (3, Netsim.Commit) else None in
        ( id,
          fork_child (tmp_name (Printf.sprintf ".r%d" id)) (fun () ->
              Tclient.run (client_cfg ~addr ~seed ~id ?die_at ())) ))
  in
  wait_pid (List.assoc 2 clis);
  let is_result2 m = match m with Proto.Result { round = 2; _ } -> true | _ -> false in
  let msgs =
    raw_hello addr ~id:2 ~resume_round:1 ~stop:(List.exists is_result2) ~timeout_s:2.5
  in
  wait_pid srv;
  List.iter (fun (id, pid) -> if id <> 2 then wait_pid pid) clis;
  (match msgs with
  | Proto.Hello_ok { round = 3; _ } :: _ -> ()
  | _ -> fail "the reconnect was not answered with a Hello_ok for round 3");
  if not (List.exists is_result2 msgs) then fail "round 2's Result was not replayed";
  if List.exists (fun m -> bcast_round m = Some 1) msgs then
    fail "a round-1 broadcast was replayed after round 3 opened"

(* a k-regular session whose clients are told nothing of the topology:
   they derive each round's share graph from the announced degree.
   Client 5 goes silent at the agg stage, so its blind is recovered
   through its neighborhood (Recover_req answered from each client's
   round record); two rounds, so records are dropped between them. *)
let test_serve_kregular () =
  let seed = "serve-kregular" in
  let topology = Risefl_topology.Topology.Kregular 2 in
  if
    Risefl_topology.Topology.plan ~mode:topology ~seed ~round:1 ~cohort:(Array.init n5 succ)
    = None
  then fail "degree 2 at n = 5 normalizes to all-to-all: the test would be vacuous";
  let rounds = 2 in
  let behaviours = Driver.honest_all n5 in
  behaviours.(4) <- Driver.Agg_silent;
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let srv_out = tmp_name ".srv" in
  let srv =
    fork_child srv_out (fun () ->
        let report, _ =
          Tserver.serve (server_cfg ~setup:setup5 ~addr ~seed ~rounds ~topology ~deadline:2.0 ())
        in
        List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n5 (fun i -> tmp_name (Printf.sprintf ".g%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        fork_child out (fun () ->
            Tclient.run (client_cfg ~setup:setup5 ~addr ~seed ~id:(i + 1) ~behaviours ())))
      cli_outs
  in
  wait_pid srv;
  List.iter wait_pid clis;
  let want =
    let report =
      Driver.run_session (Driver.create_session setup5 ~seed) ~topology
        ~updates_for:(fun r -> Updates.make ~n:n5 ~d ~bound ~seed ~attackers:[] ~round:r)
        ~behaviours ~rounds
    in
    List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes
  in
  (match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = want -> ()
  | Ok _ -> fail "k-regular deployment diverged from the in-process session"
  | Error e -> fail "server process failed: %s" e);
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got when got = want -> ()
      | Ok _ -> fail "client %d diverged from the k-regular session" (i + 1)
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    cli_outs

(* One batch of clients rides through a server that stops at a round
   boundary and resumes from the WAL. Both serves announce three rounds;
   the first dies as round 3 opens (round 2 sealed, no round-3 frame
   taken) and the second carries on from the log: it must open round 3
   where an uninterrupted run does — the same check string, not a
   redraw of an earlier round's — with the same verdicts. Client 3's
   process exits as round 3 opens, and a fresh process for id 3 starts
   against the restarted server: it learns from the announcement that
   the session is at round 3, joins it there and must report that
   round's verdict. *)
let test_serve_boundary_restart () =
  let seed = "serve-boundary" in
  let addr = Evloop.Unix_sock (tmp_name ".sock") in
  let wal = tmp_name ".wal" in
  let srv_out = tmp_name ".srv" in
  let first =
    fork_child srv_out (fun () ->
        ignore
          (Tserver.serve
             (server_cfg ~addr ~seed ~rounds:3 ~wal ~crash:(3, Netsim.Commit, Driver.Stage_start)
                ()));
        [])
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".b%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        let id = i + 1 in
        let die_at = if id = 3 then Some (3, Netsim.Commit) else None in
        fork_child out (fun () -> Tclient.run (client_cfg ~addr ~seed ~id ?die_at ())))
      cli_outs
  in
  let _, status = Unix.waitpid [] first in
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> fail "the crashing server should die by SIGKILL");
  (try Sys.remove srv_out with Sys_error _ -> ());
  wait_pid (List.nth clis 2);
  let srv2_out = tmp_name ".srv2" in
  let second =
    fork_child srv2_out (fun () ->
        let report, _ = Tserver.serve (server_cfg ~addr ~seed ~rounds:3 ~wal ()) in
        ( report.Driver.resumed_round,
          List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes ))
  in
  let late_out = tmp_name ".b3" in
  let late = fork_child late_out (fun () -> Tclient.run (client_cfg ~addr ~seed ~id:3 ())) in
  wait_pid second;
  wait_pid late;
  wait_pid (List.nth clis 0);
  wait_pid (List.nth clis 1);
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
  let want = List.map (fun (r, o) -> (r, view_of o)) want.Driver.round_outcomes in
  let round3 = List.filter (fun (r, _) -> r = 3) want in
  (match
     (read_child srv2_out : (int option * (int * Proto.result_view) list, string) result)
   with
  | Ok (Some 3, got) when got = round3 -> ()
  | Ok _ -> fail "the restarted server did not finish round 3 as the uninterrupted session"
  | Error e -> fail "restarted server failed: %s" e);
  List.iteri
    (fun i out ->
      match (read_child out : ((int * Proto.result_view) list, string) result) with
      | Ok got when got = want -> ()
      | Ok _ -> fail "client %d diverged across the boundary restart" (i + 1)
      | Error e -> fail "client %d process failed: %s" (i + 1) e)
    [ List.nth cli_outs 0; List.nth cli_outs 1 ];
  (match (read_child late_out : ((int * Proto.result_view) list, string) result) with
  | Ok got when got = round3 -> ()
  | Ok _ -> fail "the client joining at round 3 did not report round 3's verdict alone"
  | Error e -> fail "the joining client failed: %s" e);
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
        let report, _ = Tserver.serve (server_cfg ~addr ~seed ~rounds ()) in
        List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
  in
  Unix.sleepf 0.2;
  let cli_outs = List.init n (fun i -> tmp_name (Printf.sprintf ".f%d" (i + 1))) in
  let clis =
    List.mapi
      (fun i out ->
        fork_child out (fun () ->
            Tclient.run (client_cfg ~addr ~seed ~id:(i + 1) ~behaviours ())))
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
   clients sit rounds out, and the whole run must match the in-process
   elastic session. Two inputs: every process runs from the start; and a
   late joiner, a client in every round's cohort whose first process
   exits before round 2's commit while a fresh process with the same id
   starts once the server's log shows round 2 open. The fresh process
   learns from the announcement that the session is at round 2, catches
   its membership up locally, and must report the session's rounds 2
   and 3. *)
let test_serve_churn () =
  let seed = "serve-churn" in
  let spec =
    { Risefl_core.Membership.p_leave = 0.4; p_rejoin = 0.6; p_rotate = 0.3; min_cohort = 3 }
  in
  let rounds = 3 in
  let cohort_for, want =
    let session = Driver.create_session setup5 ~seed in
    let cohort_for = Driver.churn_cohort_for session ~spec ~rounds in
    let report =
      Driver.run_session session ~cohort_for
        ~updates_for:(fun r -> Updates.make ~n:n5 ~d ~bound ~seed ~attackers:[] ~round:r)
        ~behaviours:(Updates.behaviours ~n:n5 ~attackers:[])
        ~rounds
    in
    (* the schedule must actually churn, or this differential is vacuous *)
    if not (List.exists (fun (_, size) -> size < n5) report.Driver.cohort_sizes) then
      fail "seed %S never shrinks the cohort — pick a churnier seed" seed;
    (cohort_for, List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
  in
  (* the memoized hook returns the epochs the reference ran under *)
  let always_in id =
    List.for_all
      (fun r ->
        match cohort_for r with
        | Some ep -> Array.mem id ep.Risefl_core.Membership.ep_cohort
        | None -> true)
      (List.init rounds succ)
  in
  let late =
    match List.find_opt always_in (List.init n5 succ) with
    | Some id -> id
    | None -> fail "seed %S leaves no client in every cohort" seed
  in
  let deploy ~late =
    let addr = Evloop.Unix_sock (tmp_name ".sock") in
    let srv_out = tmp_name ".srv" in
    let srv_log = tmp_name ".log" in
    let srv =
      fork_child srv_out (fun () ->
          let oc = open_out srv_log in
          let log line =
            output_string oc (line ^ "\n");
            flush oc
          in
          let report, _ =
            Tserver.serve ~log (server_cfg ~setup:setup5 ~addr ~seed ~rounds ~churn:spec ())
          in
          close_out oc;
          List.map (fun (r, o) -> (r, view_of o)) report.Driver.round_outcomes)
    in
    Unix.sleepf 0.2;
    let cli_outs = List.init n5 (fun i -> tmp_name (Printf.sprintf ".e%d" (i + 1))) in
    let clis =
      List.mapi
        (fun i out ->
          let id = i + 1 in
          let die_at = if Some id = late then Some (2, Netsim.Commit) else None in
          fork_child out (fun () ->
              Tclient.run (client_cfg ~setup:setup5 ~addr ~seed ~id ?die_at ())))
        cli_outs
    in
    (* a line of the server's log starts with [prefix] *)
    let logged prefix =
      match In_channel.with_open_text srv_log In_channel.input_all with
      | text -> List.exists (String.starts_with ~prefix) (String.split_on_char '\n' text)
      | exception Sys_error _ -> false
    in
    (* the fresh process of the late id starts once round 2 is open *)
    let fresh =
      Option.map
        (fun id ->
          wait_pid (List.nth clis (id - 1));
          let give_up = Unix.gettimeofday () +. 30.0 in
          while (not (logged "round 2: waiting")) && Unix.gettimeofday () < give_up do
            Unix.sleepf 0.1
          done;
          let out = tmp_name ".late" in
          ( id,
            out,
            fork_child out (fun () -> Tclient.run (client_cfg ~setup:setup5 ~addr ~seed ~id ())) ))
        late
    in
    wait_pid srv;
    List.iteri (fun i pid -> if Some (i + 1) <> late then wait_pid pid) clis;
    Option.iter (fun (_, _, pid) -> wait_pid pid) fresh;
    (match (read_child srv_out : ((int * Proto.result_view) list, string) result) with
    | Ok got when got = want -> ()
    | Ok _ -> fail "elastic deployment diverged from the in-process elastic session"
    | Error e -> fail "server process failed: %s" e);
    (* a client sitting a round out may miss that round's broadcast; every
       result it does report must agree with the reference *)
    List.iteri
      (fun i out ->
        if Some (i + 1) = late then (try Sys.remove out with Sys_error _ -> ())
        else
          match (read_child out : ((int * Proto.result_view) list, string) result) with
          | Ok got ->
              List.iter
                (fun (r, v) ->
                  match List.assoc_opt r want with
                  | Some v' when v = v' -> ()
                  | _ -> fail "client %d round %d diverged from the elastic reference" (i + 1) r)
                got
          | Error e -> fail "client %d process failed: %s" (i + 1) e)
      cli_outs;
    Option.iter
      (fun (id, out, _) ->
        if not (logged (Printf.sprintf "client %d enrolled at round 2" id)) then
          fail "the late client did not enroll at round 2";
        match (read_child out : ((int * Proto.result_view) list, string) result) with
        | Ok got when got = List.filter (fun (r, _) -> r >= 2) want -> ()
        | Ok _ -> fail "the late client's rounds differ from the session's rounds 2-3"
        | Error e -> fail "the late client failed: %s" e)
      fresh;
    try Sys.remove srv_log with Sys_error _ -> ()
  in
  deploy ~late:None;
  deploy ~late:(Some late)

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
          Alcotest.test_case "silent client across a restart" `Slow test_serve_silent_restart;
          Alcotest.test_case "reveal timeouts past 2·D" `Slow test_serve_reveal_timeouts;
          Alcotest.test_case "reconnect replays the previous round" `Slow
            test_serve_replay_window;
          Alcotest.test_case "k-regular deployment" `Slow test_serve_kregular;
          Alcotest.test_case "restart at a sealed boundary" `Slow test_serve_boundary_restart;
          Alcotest.test_case "elastic churn deployment" `Slow test_serve_churn;
          Alcotest.test_case "false flags across rounds" `Slow test_serve_false_flags;
          Alcotest.test_case "undecodable announcement" `Quick test_bad_announcement;
        ] );
    ]
