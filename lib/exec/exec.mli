(** Multicore query execution over a shared secured store.

    An executor owns a fixed pool of worker domains and one
    {!Dolx_core.Secure_store.reader} handle per worker slot: the handles
    share the immutable evaluation state (document arena, DOL, page
    layout, codebook, tag index) and the simulated disk (which
    serializes physical I/O internally) while keeping private buffer
    pools, scan cursors and statistics — no lock is taken on the
    evaluation hot path.

    Queries run in parallel with each other, never within one query:
    each is evaluated by the sequential {!Engine.run} on one reader, and
    batch results are collected in submission order, so they are
    byte-identical to running the queries one by one.  The reader
    handles are epoch-pinned snapshots taken at {!create}, so store
    updates ({!Dolx_core.Secure_store.with_write} windows) may run
    concurrently with evaluation — the executor keeps answering from its
    creation-time state until shut down. *)

module Store = Dolx_core.Secure_store
module Engine = Dolx_nok.Engine

type t

(** [create ?value_index ?pool_capacity ?jobs store index] builds an
    executor with [jobs] worker slots (default 1 — sequential, no
    domains spawned).  [pool_capacity] sizes each reader's private
    buffer pool (defaults to the parent store's).
    @raise Invalid_argument when [jobs < 1]. *)
val create :
  ?value_index:Dolx_index.Value_index.t -> ?pool_capacity:int -> ?jobs:int ->
  Store.t -> Dolx_index.Tag_index.t -> t

(** Number of worker slots. *)
val jobs : t -> int

(** The per-slot reader handles (for statistics inspection). *)
val readers : t -> Store.t list

(** Join the worker domains and release every reader's epoch pin (so
    superseded page versions can be retired).  The executor must not be
    used afterwards.  Idempotent; with [jobs = 1] there are no domains
    but the pins are still released. *)
val shutdown : t -> unit

(** Has {!shutdown} run? *)
val is_shutdown : t -> bool

(** Worker domains still alive: [jobs] while running (0 for [jobs = 1],
    which spawns none), 0 after {!shutdown} — teardown regression tests
    assert on this. *)
val live_domains : t -> int

(** Bracket {!create} / {!shutdown} around [f]; the worker domains are
    joined even when [f] raises. *)
val with_executor :
  ?value_index:Dolx_index.Value_index.t -> ?pool_capacity:int -> ?jobs:int ->
  Store.t -> Dolx_index.Tag_index.t -> (t -> 'a) -> 'a

(** {1 Inter-query parallelism} *)

(** Evaluate independent queries across the pool.  Results are in
    submission order, each equal to [Engine.run] on the same input.  A
    task exception is re-raised after the batch drains. *)
val run_batch : t -> (Dolx_nok.Pattern.t * Engine.semantics) list -> Engine.result list

(** {!run_batch} over XPath strings.
    @raise Dolx_nok.Xpath.Parse_error on a malformed query. *)
val query_batch : t -> (string * Engine.semantics) list -> Engine.result list

(** {1 Statistics} *)

(** Zero every reader's statistics and the shared disk's
    ({!Dolx_core.Secure_store.reset_stats} on each reader). *)
val reset_stats : t -> unit
