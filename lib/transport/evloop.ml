(* transport.* telemetry: registered once per name, shared with the other
   transport modules (Counter.make is idempotent), and therefore visible
   in every --trace snapshot that crosses the socket path *)
let c_accepts = Telemetry.Counter.make "transport.accepts"
let c_disconnects = Telemetry.Counter.make "transport.disconnects"
let c_violations = Telemetry.Counter.make "transport.violations"
let c_bytes_in = Telemetry.Counter.make "transport.bytes.in"
let c_bytes_out = Telemetry.Counter.make "transport.bytes.out"
let c_frames_in = Telemetry.Counter.make "transport.frames.in"
let c_frames_out = Telemetry.Counter.make "transport.frames.out"
let c_overflows = Telemetry.Counter.make "transport.outbuf.overflows"

type addr = Tcp of string * int | Unix_sock of string

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Error "expected tcp:HOST:PORT or unix:PATH"
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" -> if rest = "" then Error "empty unix path" else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp needs HOST:PORT"
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 ->
                  Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
              | _ -> Error ("bad port: " ^ port)))
      | _ -> Error ("unknown scheme: " ^ scheme))

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  | Unix_sock p -> "unix:" ^ p

let sockaddr_of_addr = function
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_loopback)
      in
      Unix.ADDR_INET (ip, port)
  | Unix_sock path -> Unix.ADDR_UNIX path

type conn = {
  fd : Unix.file_descr;
  peer : string;
  reasm : Frame.Reassembler.t;
  mutable id : int option;
  (* queued wire bytes: head is partially written up to [out_off] *)
  out : Bytes.t Queue.t;
  mutable out_off : int;
  mutable out_bytes : int;
  mutable alive : bool;
}

let conn_id c = c.id
let set_conn_id c i = c.id <- Some i
let conn_peer c = c.peer

type event =
  | Accepted of conn
  | Msg of conn * Proto.msg
  | Violation of conn * string
  | Closed of conn

type t = {
  listen_fd : Unix.file_descr;
  listen_addr : addr;
  max_frame : int;
  max_outbuf : int;
  mutable conns : conn list;
  queued : event Queue.t;  (* events produced during [drain] *)
  readbuf : Bytes.t;
}

let listen ?(max_frame = Frame.default_max_frame) ?(max_outbuf = 64 * 1024 * 1024) addr =
  (match addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let domain = match addr with Tcp _ -> Unix.PF_INET | Unix_sock _ -> Unix.PF_UNIX in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | Unix_sock _ -> ());
  Unix.bind fd (sockaddr_of_addr addr);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  {
    listen_fd = fd;
    listen_addr = addr;
    max_frame;
    max_outbuf;
    conns = [];
    queued = Queue.create ();
    readbuf = Bytes.create 65536;
  }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    Telemetry.Counter.incr c_disconnects;
    close_fd conn.fd;
    t.conns <- List.filter (fun c -> c != conn) t.conns
  end

let string_of_sockaddr = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (ip, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

(* write as much of [conn]'s outbuffer as the socket accepts *)
let flush_conn t conn =
  let closed = ref false in
  (try
     while conn.alive && not (Queue.is_empty conn.out) do
       let head = Queue.peek conn.out in
       let len = Bytes.length head - conn.out_off in
       let n = Unix.write conn.fd head conn.out_off len in
       Telemetry.Counter.add c_bytes_out n;
       conn.out_bytes <- conn.out_bytes - n;
       if n = len then begin
         ignore (Queue.pop conn.out);
         conn.out_off <- 0
       end
       else conn.out_off <- conn.out_off + n
     done
   with
  | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> closed := true);
  if !closed then begin
    close_conn t conn;
    true
  end
  else false

let send t conn msg =
  if conn.alive then begin
    let wire = Frame.encode (Proto.encode msg) in
    Queue.push wire conn.out;
    conn.out_bytes <- conn.out_bytes + Bytes.length wire;
    Telemetry.Counter.incr c_frames_out;
    ignore (flush_conn t conn);
    (* backpressure: a peer that stopped reading does not get to grow our
       heap without bound — past the cap it is disconnected *)
    if conn.out_bytes > t.max_outbuf then begin
      Telemetry.Counter.incr c_overflows;
      close_conn t conn
    end
  end

let broadcast t msg =
  List.iter (fun c -> if c.id <> None then send t c msg) t.conns

let conn_of_id t i =
  List.find_opt (fun c -> c.alive && c.id = Some i) t.conns

(* read whatever is available on [conn]; decode completed frames *)
let read_conn t conn events =
  let closed = ref false in
  let eof = ref false in
  (try
     let continue = ref true in
     while !continue && conn.alive do
       let n = Unix.read conn.fd t.readbuf 0 (Bytes.length t.readbuf) in
       if n = 0 then begin
         eof := true;
         continue := false
       end
       else begin
         Telemetry.Counter.add c_bytes_in n;
         match Frame.Reassembler.feed conn.reasm t.readbuf ~off:0 ~len:n with
         | Error e ->
             Telemetry.Counter.incr c_violations;
             events := Violation (conn, e) :: !events;
             close_conn t conn;
             continue := false
         | Ok bodies ->
             List.iter
               (fun body ->
                 if conn.alive then begin
                   Telemetry.Counter.incr c_frames_in;
                   match Proto.decode body with
                   | Ok msg -> events := Msg (conn, msg) :: !events
                   | Error e ->
                       Telemetry.Counter.incr c_violations;
                       events :=
                         Violation
                           (conn, "bad envelope: " ^ Risefl_core.Serial.error_to_string e)
                         :: !events;
                       close_conn t conn
                 end)
               bodies;
         if n < Bytes.length t.readbuf then continue := false
       end
     done
   with
  | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> closed := true);
  if (!closed || !eof) && conn.alive then begin
    close_conn t conn;
    events := Closed conn :: !events
  end

let accept_ready t events =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, peer ->
        Unix.set_nonblock fd;
        let conn =
          {
            fd;
            peer = string_of_sockaddr peer;
            reasm = Frame.Reassembler.create ~max_frame:t.max_frame ();
            id = None;
            out = Queue.create ();
            out_off = 0;
            out_bytes = 0;
            alive = true;
          }
        in
        Telemetry.Counter.incr c_accepts;
        t.conns <- conn :: t.conns;
        events := Accepted conn :: !events
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let poll t ~timeout_s =
  let events = ref [] in
  (* events deferred from a drain window surface first *)
  while not (Queue.is_empty t.queued) do
    events := Queue.pop t.queued :: !events
  done;
  let rds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
  let wrs =
    List.filter_map
      (fun c -> if Queue.is_empty c.out then None else Some c.fd)
      t.conns
  in
  let timeout = if !events <> [] then 0.0 else max 0.0 timeout_s in
  (match Unix.select rds wrs [] timeout with
  | readable, writable, _ ->
      if List.memq t.listen_fd readable then accept_ready t events;
      List.iter
        (fun conn -> if conn.alive && List.memq conn.fd writable then ignore (flush_conn t conn))
        t.conns;
      List.iter
        (fun conn -> if conn.alive && List.memq conn.fd readable then read_conn t conn events)
        (List.filter (fun c -> c.fd != t.listen_fd) t.conns)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  List.rev !events

let drain t ~deadline_s =
  let busy () = List.exists (fun c -> c.alive && not (Queue.is_empty c.out)) t.conns in
  while busy () && Telemetry.Clock.now_s () < deadline_s do
    List.iter (fun ev -> Queue.push ev t.queued) (poll t ~timeout_s:0.02)
  done

let shutdown t =
  List.iter (fun c -> close_conn t c) t.conns;
  close_fd t.listen_fd;
  match t.listen_addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
