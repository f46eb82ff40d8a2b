(** The blocking server loop: accepts concurrent sessions on a Unix
    domain socket and maps each session's submits to {!Serve} tickets.

    One thread per session answers the requests of the {!Frame}
    grammar one by one, in order.  Requests may be pipelined: while the
    next complete request is already buffered, replies are held back,
    so a pipelined [Submit] + [Next] is answered in one write
    ([Accepted] and the first chunk).  A chunk that ends its stream is
    sent as [Last].  The [wire.writes] and [wire.chunks] counters count
    the socket writes and the chunks sent.  A client disconnect — clean EOF, a mid-frame
    cut, or a write failing with [EPIPE]/[ECONNRESET] after the client
    was killed — is handled as ticket {!Dolx_serve.Serve.close} for
    every stream the session still holds, so the readers' epoch pins
    release at the next chunk boundary and a dead client can never leak
    a pinned snapshot.

    Shutdown order matters: {!stop} the wire server first (it joins the
    session threads), then shut down the {!Dolx_serve.Serve.t} — a
    session blocked awaiting a chunk needs live workers to drain. *)

module Serve = Dolx_serve.Serve

type t

(** Listen on [path] (an existing socket file is replaced) and start
    the accept thread.  [name] is echoed in [Welcome] frames;
    [fault_plan] injects wire faults into every session's sends (tests
    only).  SIGPIPE is ignored process-wide so a dead peer surfaces as
    an [EPIPE] write error, not a signal. *)
val start :
  ?max_frame:int ->
  ?name:string ->
  ?fault_plan:Conn.fault_plan ->
  Serve.t ->
  path:string ->
  t

val path : t -> string

(** Sessions currently connected. *)
val sessions : t -> int

(** Total sessions ever accepted. *)
val accepted : t -> int

(** Sessions that ended with a disconnect (EOF / cut / reset) rather
    than a clean last request. *)
val disconnects : t -> int

(** Stop accepting, cut every live session, join all threads, and
    remove the socket file.  Idempotent. *)
val stop : t -> unit
