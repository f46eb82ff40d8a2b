(** Client side of the wire protocol: a blocking connection to a
    {!Server} socket, with remote streams mirroring the
    {!Dolx_serve.Serve} ticket surface ([submit] / [next_chunk] /
    [collect] / [close_stream]).

    Requests on one connection are answered in order.  {!submit}
    pipelines the stream's first [Next] behind its [Submit] in one
    write and returns with both replies read, so a query whose answers
    fit one chunk costs one exchange: the server ends such a stream
    with an end-marked [Last] chunk.  Later chunks are pulled one
    [Next] at a time; interleave several streams by alternating their
    [next_chunk] calls.  Calls on one connection are serialized, so
    threads may share it. *)

module Engine = Dolx_nok.Engine

(** The server reported a failure for this request (worker-side
    evaluation error, unknown tenant, protocol violation). *)
exception Server_error of string

type t

(** Connect to the socket at [path] and perform the hello exchange.
    [retry_for] (seconds, default 0) keeps retrying while the socket
    does not exist yet or refuses — for clients racing a server that is
    still starting up. *)
val connect :
  ?retry_for:float -> ?max_frame:int -> ?client:string -> string -> t

(** The name the server sent in its [Welcome]. *)
val server_name : t -> string

(** Send a [Bye] and close the connection.  Open streams are
    implicitly abandoned — the server closes their tickets when the
    session ends.  Idempotent. *)
val close : t -> unit

(** Slam the connection shut with no goodbye, mid-anything — what a
    killed client process looks like to the server. *)
val abort : t -> unit

(** {1 Streams} *)

type stream

(** Submit a query and request its first chunk; returns once the
    server has acknowledged the query and answered that request (the
    first chunk, the end of the stream, or a worker-side error, which
    {!next_chunk} then hands out).  Because it waits for the first
    chunk, a query a worker cannot start — every worker blocked on a
    full buffer of another undrained stream — blocks [submit] itself.
    @raise Dolx_serve.Serve.Overloaded when the server shed it.
    @raise Server_error on an immediate server-side failure. *)
val submit : t -> tenant:string -> string -> Engine.semantics -> stream

(** Pull the next chunk; [[]] means the stream completed.
    @raise Server_error when the query failed worker-side. *)
val next_chunk : stream -> int list

(** Drain to a single answer list. *)
val collect : stream -> int list

(** Tell the server to cancel the stream (its reader pin releases at
    the next chunk boundary).  Idempotent. *)
val close_stream : stream -> unit

(** {1 Introspection} *)

(** Server statistics (key/value) via a [Stats] request. *)
val stats : t -> (string * int) list
