module TI = Netsim.Transport_intf
module W = Risefl_core.Serial.W
module R = Risefl_core.Serial.R

let c_bytes_out = Telemetry.Counter.make "transport.bytes.out"
let c_bytes_in = Telemetry.Counter.make "transport.bytes.in"
let c_frames_in = Telemetry.Counter.make "transport.frames.in"

type t = {
  inner : Netsim.t;
  wr : Unix.file_descr;
  rd : Unix.file_descr;
  reasm : Frame.Reassembler.t;
  chunks : Prng.Drbg.t;  (* seeded chunk sizing: deterministic fragmentation *)
  mutable completed : (int * Bytes.t) list;  (* reassembled, oldest first *)
}

let create ?plan ?link_plans ?script ?deadline ~seed () =
  let inner = Netsim.create ?plan ?link_plans ?script ?deadline ~seed () in
  let wr, rd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock wr;
  Unix.set_nonblock rd;
  let t =
    {
      inner;
      wr;
      rd;
      reasm = Frame.Reassembler.create ();
      chunks = Prng.Drbg.create_string ("loopback/" ^ seed);
      completed = [];
    }
  in
  (* the interface has no close (Netsim needs none); reclaim the pair's
     descriptors when the backend is collected *)
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Gc.finalise (fun t -> close_quietly t.wr; close_quietly t.rd) t;
  t

let envelope ~sender frame =
  let b = W.create () in
  W.u32 b sender;
  W.bytes b frame;
  Buffer.to_bytes b

let parse_envelope body =
  match
    Risefl_core.Serial.total "loopback" (fun r ->
        let sender = R.u32 r in
        let frame = R.bytes r in
        R.finish r;
        (sender, frame))
      body
  with
  | Ok v -> v
  | Error e ->
      (* we wrote this envelope ourselves two calls ago: a decode failure
         here is a codec bug, not hostile input *)
      failwith ("Loopback: envelope round-trip failed: " ^ Risefl_core.Serial.error_to_string e)

(* pull whatever the kernel has for us and run it through the reassembler *)
let drain t =
  let buf = Bytes.create 4096 in
  let continue = ref true in
  while !continue do
    match Unix.read t.rd buf 0 (Bytes.length buf) with
    | 0 -> continue := false
    | n -> (
        Telemetry.Counter.add c_bytes_in n;
        match Frame.Reassembler.feed t.reasm buf ~off:0 ~len:n with
        | Error e -> failwith ("Loopback: reassembly failed: " ^ e)
        | Ok bodies ->
            List.iter
              (fun body ->
                Telemetry.Counter.incr c_frames_in;
                t.completed <- t.completed @ [ parse_envelope body ])
              bodies)
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
        continue := false
  done

let send ?(attempt = 0) t ~sender frame =
  let wire = Frame.encode (envelope ~sender frame) in
  let len = Bytes.length wire in
  let pos = ref 0 in
  while !pos < len do
    (* seeded fragmentation: 1..32-byte chunks, so every frame crosses the
       reassembler in many partial reads (including byte-at-a-time) *)
    let chunk = min (1 + Prng.Drbg.uniform_int t.chunks 32) (len - !pos) in
    (match Unix.write t.wr wire !pos chunk with
    | n ->
        Telemetry.Counter.add c_bytes_out n;
        pos := !pos + n
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
        (* kernel buffer full: make room by consuming the read side *)
        drain t);
    drain t
  done;
  (* the socketpair is in-process: finish reassembling this frame now so
     the attempt tag rides with the right Netsim submission *)
  while t.completed = [] do
    drain t
  done;
  match t.completed with
  | (env_sender, env_frame) :: rest ->
      t.completed <- rest;
      if env_sender <> sender then failwith "Loopback: sender id corrupted in flight";
      Netsim.send ~attempt t.inner ~sender env_frame
  | [] -> assert false

let deadline t = Netsim.deadline t.inner
let begin_stage t ~round ~stage = Netsim.begin_stage t.inner ~round ~stage
let note_recovered t = Netsim.note_recovered t.inner

let deliver ?deadline t =
  match deadline with
  | Some d -> Netsim.deliver ~deadline:d t.inner
  | None -> Netsim.deliver t.inner

let counters t = Netsim.counters t.inner

let endpoint (t : t) : TI.endpoint =
  {
    TI.ep_begin_stage = (fun ~round ~stage -> begin_stage t ~round ~stage);
    ep_send = (fun ~attempt ~sender frame -> send ~attempt t ~sender frame);
    ep_deliver =
      (fun ~deadline ->
        match deadline with Some d -> Netsim.deliver ~deadline:d t.inner | None -> Netsim.deliver t.inner);
    ep_note_recovered = (fun () -> note_recovered t);
    ep_deadline = (fun () -> deadline t);
    ep_counters = (fun () -> counters t);
  }
