(** Wire server: session threads bridging socket frames to Serve
    tickets; see server.mli. *)

module Serve = Dolx_serve.Serve
module Metrics = Dolx_obs.Metrics

let c_sessions = Metrics.counter "wire.sessions"

let c_disconnects = Metrics.counter "wire.disconnects"

let c_protocol_errors = Metrics.counter "wire.protocol_errors"

let c_writes = Metrics.counter "wire.writes"

let c_chunks = Metrics.counter "wire.chunks"

type session = { ss_conn : Conn.t; ss_thread : Thread.t }

type t = {
  srv : Serve.t;
  listen_fd : Unix.file_descr;
  sock_path : string;
  server_name : string;
  max_frame : int;
  fault_plan : Conn.fault_plan option;
  m : Mutex.t;
  live : (int, session) Hashtbl.t;
  mutable next_session : int;
  mutable accepted : int;
  mutable disconnects : int;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
}

let path t = t.sock_path

let sessions t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.live in
  Mutex.unlock t.m;
  n

let accepted t =
  Mutex.lock t.m;
  let n = t.accepted in
  Mutex.unlock t.m;
  n

let disconnects t =
  Mutex.lock t.m;
  let n = t.disconnects in
  Mutex.unlock t.m;
  n

let stats_reply t =
  let s = Serve.stats t.srv in
  Frame.Stats_reply
    [
      ("served", s.Serve.served);
      ("shed", s.Serve.shed);
      ("queued", s.Serve.queued);
      ("pinned_readers", s.Serve.pinned_readers);
      ("open_shards", s.Serve.open_shards);
      ("peak_buffered", s.Serve.peak_buffered);
      ("sessions", Hashtbl.length t.live);
      ("accepted", t.accepted);
      ("disconnects", t.disconnects);
    ]

(* One response per request; [None] for the client's goodbye, which
   ends the session.  Submit errors (unknown tenant, admission shed) are
   reported on the stream id; a worker-side evaluation error surfaces at
   the Next that would have pulled past it.  A chunk that ends its
   stream goes out as [Last], so no Next→End exchange follows. *)
let handle_request t tickets req =
  match req with
  | Frame.Bye -> None
  | Frame.Hello { client = _ } -> Some (Frame.Welcome { server = t.server_name })
  | Frame.Submit { id; tenant; xpath; semantics } ->
      Some
        (if Hashtbl.mem tickets id then
           Frame.Error { id; message = "stream id already in use" }
         else
           match Serve.submit t.srv ~tenant xpath semantics with
           | tk ->
               Hashtbl.replace tickets id tk;
               Frame.Accepted { id }
           | exception Serve.Overloaded -> Frame.Overloaded { id }
           | exception e -> Frame.Error { id; message = Printexc.to_string e })
  | Frame.Next { id } ->
      Some
        (match Hashtbl.find_opt tickets id with
        | None -> Frame.Error { id; message = "unknown stream id" }
        | Some tk -> (
            match Serve.next_chunk_last tk with
            | [], _ ->
                Hashtbl.remove tickets id;
                Frame.End { id }
            | answers, true ->
                Hashtbl.remove tickets id;
                Metrics.incr c_chunks;
                Frame.Last { id; answers }
            | answers, false ->
                Metrics.incr c_chunks;
                Frame.Chunk { id; answers }
            | exception e ->
                Hashtbl.remove tickets id;
                Frame.Error { id; message = Printexc.to_string e }))
  | Frame.Close { id } ->
      (match Hashtbl.find_opt tickets id with
      | Some tk ->
          Serve.close tk;
          Hashtbl.remove tickets id
      | None -> ());
      Some (Frame.End { id })
  | Frame.Stats ->
      Mutex.lock t.m;
      let reply = stats_reply t in
      Mutex.unlock t.m;
      Some reply

let unregister t sid ~disconnected =
  Mutex.lock t.m;
  Hashtbl.remove t.live sid;
  if disconnected then begin
    t.disconnects <- t.disconnects + 1;
    Metrics.incr c_disconnects
  end;
  Mutex.unlock t.m

(* The session loop: requests are answered in order, and the replies
   to requests that arrived together leave together.  Only a [Bye] ends
   the session cleanly; EOF without one counts as a disconnect.  Every
   exit path — goodbye, EOF, mid-frame cut, undecodable input, a write
   landing on a dead peer — closes all the session's tickets, so its
   readers' epoch pins release at the next chunk boundary. *)
let session_loop t sid conn =
  let tickets : (int, Serve.ticket) Hashtbl.t = Hashtbl.create 8 in
  let disconnected = ref false in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun _ tk -> Serve.close tk) tickets;
      Conn.close conn;
      unregister t sid ~disconnected:!disconnected)
    (fun () ->
      try
        let rec loop () =
          match Conn.recv conn with
          | Frame.Request req -> (
              match handle_request t tickets req with
              | None -> ()
              | Some reply ->
                  Conn.queue conn (Frame.Response reply);
                  (* hold the reply back while the client's next request
                     is already here: a pipelined Submit+Next is answered
                     with one write (a long pipeline is flushed every
                     64 KiB) *)
                  if (not (Conn.ready conn)) || Conn.queued_bytes conn > 65536
                  then begin
                    (* counted first: a client that has the reply may
                       read the counter at once *)
                    Metrics.incr c_writes;
                    Conn.flush conn
                  end;
                  loop ())
          | Frame.Response _ ->
              (* a client must never send response frames *)
              Metrics.incr c_protocol_errors;
              disconnected := true
        in
        loop ()
      with
      | Conn.Closed _ -> disconnected := true
      | Frame.Corrupt _ ->
          Metrics.incr c_protocol_errors;
          disconnected := true
      | _ ->
          (* anything else (codec bug, stray Unix_error) still counts as
             a protocol error and must not skip ticket/fd cleanup *)
          Metrics.incr c_protocol_errors;
          disconnected := true)

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        let conn = Conn.of_fd ~max_frame:t.max_frame fd in
        Conn.set_fault_plan conn t.fault_plan;
        Mutex.lock t.m;
        if t.stopping then begin
          Mutex.unlock t.m;
          Conn.close conn
        end
        else begin
          let sid = t.next_session in
          t.next_session <- sid + 1;
          t.accepted <- t.accepted + 1;
          Metrics.incr c_sessions;
          let thread = Thread.create (fun () -> session_loop t sid conn) () in
          Hashtbl.replace t.live sid { ss_conn = conn; ss_thread = thread };
          Mutex.unlock t.m
        end;
        loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
        (* listener closed by stop *)
        ()
  in
  loop ()

let start ?(max_frame = Frame.default_max_frame) ?(name = "dolx")
    ?fault_plan srv ~path =
  (* a dead peer must surface as an EPIPE write error, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (ADDR_UNIX path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      srv;
      listen_fd;
      sock_path = path;
      server_name = name;
      max_frame;
      fault_plan;
      m = Mutex.create ();
      live = Hashtbl.create 16;
      next_session = 0;
      accepted = 0;
      disconnects = 0;
      stopping = false;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  Mutex.lock t.m;
  if t.stopping then Mutex.unlock t.m
  else begin
    t.stopping <- true;
    Mutex.unlock t.m;
    (* shutdown(2) the listener — it wakes a thread blocked in accept(2)
       (returning EINVAL), which plain close does not — then reap the
       accept thread and release the fd *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    t.accept_thread <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* cut every live session with shutdown(2) — it wakes a thread
       blocked in read, which plain close does not; each session loop
       then sees Closed, closes its tickets, closes its own fd and
       unregisters itself *)
    Mutex.lock t.m;
    let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.live [] in
    Mutex.unlock t.m;
    List.iter (fun s -> Conn.shutdown s.ss_conn) live;
    List.iter (fun s -> Thread.join s.ss_thread) live;
    if Sys.file_exists t.sock_path then
      try Unix.unlink t.sock_path with Unix.Unix_error _ -> ()
  end
