(** Multi-tenant streaming query service.

    Sessions submit XPath queries for a tenant and pull answers through
    a {!ticket} — a bounded chunk stream with backpressure.  Work is
    drained from per-tenant FIFO queues onto a pool of worker domains by
    stride-based weighted fair queuing; total queued work is bounded by
    admission control ({!Overloaded}); tenant shards backed by a
    {!Dolx_core.Db_file} are opened on demand and LRU-evicted when idle.

    Each in-flight query evaluates on its own epoch-pinned
    {!Dolx_core.Secure_store.reader} via {!Dolx_nok.Engine.stream}, so
    answers come from a consistent snapshot.  Per-query memory is
    [chunk * (buffer_chunks + 1)] buffered answers plus the stream's
    own state: on the summary-path plan O(chunk + steps × document
    depth), bounded by neither the candidate nor the result count; on
    the segment plan also the lists it stages (joined bindings and the
    last segment's candidate roots, each at most its postings' length)
    and one root's reorder margin.

    {b Drain ordering.} Backpressure is real: a worker producing a
    result larger than the ticket buffer blocks until the client
    drains.  A client holding many tickets must therefore drain each
    tenant's tickets in submission order (one session per tenant is the
    natural shape) — that order matches the scheduler's per-tenant FIFO
    dispatch, which guarantees progress.  A single consumer draining
    all tenants' tickets in one fixed global order can stall against
    the weighted-fair dispatch when results exceed the buffer bound;
    {!close} any ticket you abandon instead. *)

module Store = Dolx_core.Secure_store
module Engine = Dolx_nok.Engine

(** Raised by {!submit} when the global queue is at [max_queued]. *)
exception Overloaded

(** {1 Service} *)

type t

(** Where a tenant's data lives: an already-resident store (never
    evicted, lifetime owned by the caller) or a {!Dolx_core.Db_file}
    path (opened on demand, idle handles LRU-evicted past the shard
    cap). *)
type shard_source =
  | Mem of Store.t * Dolx_index.Tag_index.t
  | Db of string

(** [create ()] starts the worker domains.
    - [jobs]: worker domains draining the queues (default 2);
    - [chunk]: answers per stream chunk (default 256);
    - [buffer_chunks]: chunks a ticket buffers before the producing
      worker blocks (default 4);
    - [max_queued]: admission bound on jobs accepted but not yet
      running (default 1024);
    - [shard_cap]: max idle+active [Db]-backed shards kept open
      (default 8).
    @raise Invalid_argument on any parameter < 1. *)
val create :
  ?jobs:int -> ?chunk:int -> ?buffer_chunks:int -> ?max_queued:int ->
  ?shard_cap:int -> unit -> t

(** Register a tenant.  [weight] (default 1.0) sets its fair share:
    a weight-2 tenant is picked twice as often as a weight-1 tenant
    when both are backlogged.
    @raise Invalid_argument on a duplicate name or [weight <= 0]. *)
val add_tenant : t -> ?weight:float -> string -> shard_source -> unit

type ticket

(** Queue a query for a tenant; returns immediately with the ticket.
    @raise Overloaded when the admission bound is hit (the query was
    never accepted).
    @raise Invalid_argument on an unknown tenant or a shut-down
    service.  A malformed XPath query is reported through the ticket
    (the parse runs on the worker), not here. *)
val submit : t -> tenant:string -> string -> Engine.semantics -> ticket

(** Evaluate a batch for one tenant and return each query's answers,
    in submission order — equal to [(Engine.run ...).answers] on each
    query, whatever [jobs], [chunk] or [buffer_chunks].  Each query runs
    on its own fresh reader, like a {!submit}ted one.  At most
    [max_queued] tickets are open at once, so a batch that is the
    service's only client is never shed.  A failing query does not stop
    the rest: every ticket is drained, then the first failure in
    submission order is re-raised.
    @raise Invalid_argument on an unknown tenant or a shut-down
    service. *)
val run_batch :
  t -> tenant:string -> (Dolx_nok.Pattern.t * Engine.semantics) list ->
  int list list

(** Stop accepting work, cancel in-flight streams (as by {!close}),
    join the worker domains, and fail every job still queued with a
    ticket error — accepted work is never silently dropped.
    Idempotent. *)
val shutdown : t -> unit

(** Bracket {!create} / {!shutdown} around [f]. *)
val with_service :
  ?jobs:int -> ?chunk:int -> ?buffer_chunks:int -> ?max_queued:int ->
  ?shard_cap:int -> (t -> 'a) -> 'a

(** {1 Tickets} *)

(** Block for the next chunk of answers (document order, distinct,
    at most [chunk] long).  [[]] means the stream is complete.
    Re-raises the worker-side error (e.g. [Xpath.Parse_error]) if the
    query failed.
    @raise Invalid_argument on a ticket already {!close}d. *)
val next_chunk : ticket -> int list

(** {!next_chunk}, and whether the stream ends with it.  [(chunk, true)]
    when no chunk follows — the chunk that exhausted the query's source,
    or [[]] at the end — so a consumer needs no further call to learn
    that the stream is over.  The mark is deterministic: it is set when
    the worker queues the chunk, after the query's reader pin and shard
    reference are released, so once a consumer holds it
    {!pinned_readers} no longer counts the query. *)
val next_chunk_last : ticket -> int list * bool

(** Cancel the stream: discard buffered chunks and tell the producing
    worker to stop.  The worker closes its engine stream and releases
    the reader's epoch pin at the next chunk boundary.  Idempotent. *)
val close : ticket -> unit

(** Drain the ticket to a single answer list. *)
val collect : ticket -> int list

(** Block until the worker has released the query's resources (reader
    pin freed) — what epoch-release tests synchronize on after
    {!close}. *)
val await_release : ticket -> unit

(** Answers pushed into the ticket so far. *)
val ticket_emitted : ticket -> int

(** The engine stream's buffered-answer high-water mark (available
    after the stream finishes). *)
val ticket_peak_buffered : ticket -> int

(** Global completion-order stamp (1-based), or -1 while in flight —
    fairness tests assert on the interleaving. *)
val completion_seq : ticket -> int

(** {1 Statistics} *)

type stats = {
  served : int;                  (* queries completed successfully *)
  shed : int;                    (* submissions refused with Overloaded *)
  queued : int;                  (* accepted, not yet picked *)
  tenants : (string * int) list; (* per-tenant served counts, sorted *)
  shard_opens : int;             (* Db_file loads performed *)
  shard_evictions : int;         (* idle shards dropped past the cap *)
  open_shards : int;             (* currently resident shards *)
  peak_buffered : int;           (* max stream high-water across queries *)
  pinned_readers : int;          (* epoch pins live across all shards *)
}

val stats : t -> stats

(** Epoch pins currently held across every store the service can reach
    (deduplicated by physical identity).  Each in-flight query holds
    exactly one pin from submission pickup until its stream drains,
    fails, or is {!close}d — so after all tickets release, this returns
    to the service's baseline.  The wire layer exposes it so a leaked
    pin after a client disconnect is observable from outside the
    process. *)
val pinned_readers : t -> int
