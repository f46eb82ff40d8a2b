(** Wire client; see client.mli. *)

module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve

exception Server_error of string

type t = {
  conn : Conn.t;
  m : Mutex.t;  (* serializes request/response exchanges *)
  mutable name : string;
  mutable next_id : int;
}

(* [pending] is a reply the server has sent for this stream that no
   [next_chunk] has consumed yet: the answer to the Next that [submit]
   pipelined behind its Submit. *)
type stream = {
  cl : t;
  id : int;
  mutable pending : Frame.response option;
  mutable finished : bool;
}

let recv_response t =
  match Conn.recv t.conn with
  | Frame.Response resp -> resp
  | Frame.Request _ ->
      raise (Server_error "protocol violation: server sent a request")

(* Send the requests [mk_reqs] builds in one write, then read their
   replies, one each, in order: the server answers every request, in
   the order sent.  [mk_reqs] runs under the mutex so any
   per-connection state it reads (e.g. next_id) is race-free. *)
let exchange_with t mk_reqs =
  Mutex.protect t.m (fun () ->
      let reqs = mk_reqs () in
      List.iter (fun req -> Conn.queue t.conn (Frame.Request req)) reqs;
      Conn.flush t.conn;
      List.fold_left (fun acc _ -> recv_response t :: acc) [] reqs |> List.rev)

let exchange t req =
  match exchange_with t (fun () -> [ req ]) with
  | [ resp ] -> resp
  | _ -> assert false

let unexpected what resp =
  Server_error
    (Format.asprintf "unexpected %s reply: %a" what Frame.pp (Frame.Response resp))

let connect ?(retry_for = 0.0) ?max_frame ?(client = "dolx-client") path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec dial () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        dial ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  let t =
    {
      conn = Conn.of_fd ?max_frame (dial ());
      m = Mutex.create ();
      name = "";
      next_id = 0;
    }
  in
  (match exchange t (Frame.Hello { client }) with
  | Frame.Welcome { server } -> t.name <- server
  | resp ->
      Conn.close t.conn;
      raise (unexpected "hello" resp));
  t

let server_name t = t.name

(* Say goodbye, so the server counts a clean end rather than a
   disconnect; a server already gone needs none. *)
let close t =
  (try Conn.send t.conn (Frame.Request Frame.Bye) with Conn.Closed _ -> ());
  Conn.close t.conn

let abort t = Conn.close t.conn

(* Submit and the stream's first Next travel in one write; both
   replies are read before anything is raised, so none is left unread
   on the connection. *)
let submit t ~tenant xpath semantics =
  let id = ref (-1) in
  let replies =
    exchange_with t (fun () ->
        id := t.next_id;
        t.next_id <- !id + 1;
        [ Frame.Submit { id = !id; tenant; xpath; semantics }; Frame.Next { id = !id } ])
  in
  let id = !id in
  match replies with
  | [ Frame.Accepted { id = id' }; first ] when id' = id ->
      { cl = t; id; pending = Some first; finished = false }
  | [ Frame.Overloaded { id = id' }; _ ] when id' = id -> raise Serve.Overloaded
  | [ Frame.Error { id = id'; message }; _ ] when id' = id ->
      raise (Server_error message)
  | resp :: _ -> raise (unexpected "submit" resp)
  | [] -> assert false

let next_chunk st =
  if st.finished then []
  else
    let resp =
      match st.pending with
      | Some resp ->
          st.pending <- None;
          resp
      | None -> exchange st.cl (Frame.Next { id = st.id })
    in
    match resp with
    | Frame.Chunk { id; answers } when id = st.id -> answers
    | Frame.Last { id; answers } when id = st.id ->
        st.finished <- true;
        answers
    | Frame.End { id } when id = st.id ->
        st.finished <- true;
        []
    | Frame.Error { id; message } when id = st.id ->
        st.finished <- true;
        raise (Server_error message)
    | resp -> raise (unexpected "next" resp)

let collect st =
  let rec go acc =
    match next_chunk st with
    | [] -> List.concat (List.rev acc)
    | chunk -> go (chunk :: acc)
  in
  go []

let close_stream st =
  if not st.finished then begin
    st.finished <- true;
    st.pending <- None;
    match exchange st.cl (Frame.Close { id = st.id }) with
    | Frame.End _ -> ()
    | resp -> raise (unexpected "close" resp)
  end

let stats t =
  match exchange t Frame.Stats with
  | Frame.Stats_reply kvs -> kvs
  | resp -> raise (unexpected "stats" resp)
