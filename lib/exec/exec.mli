(** Multicore query execution over a shared secured store.

    An executor owns one {!Dolx_core.Secure_store.reader} handle per
    worker slot: the handles share the immutable evaluation state
    (document arena, DOL, page layout, codebook, tag index) and the
    simulated disk (which serializes physical I/O internally) while
    keeping private buffer pools, scan cursors and statistics — no lock
    is taken on the evaluation hot path.

    Queries run in parallel with each other, never within one query:
    {!run_batch} forks one domain per slot and joins them before it
    returns; each query is evaluated by the sequential {!Engine.run} on
    one reader, and batch results are collected in submission order, so
    they are byte-identical to running the queries one by one.  The
    reader handles are epoch-pinned snapshots taken at {!create}, so
    store updates ({!Dolx_core.Secure_store.with_write} windows) may run
    concurrently with evaluation — the executor keeps answering from its
    creation-time state until shut down. *)

module Store = Dolx_core.Secure_store
module Engine = Dolx_nok.Engine

type t

(** [create ?value_index ?pool_capacity ?jobs store index] builds an
    executor with [jobs] worker slots (default 1 — sequential: batches
    run on the calling domain).  [pool_capacity] sizes each reader's
    private buffer pool (defaults to the parent store's).
    @raise Invalid_argument when [jobs < 1]. *)
val create :
  ?value_index:Dolx_index.Value_index.t -> ?pool_capacity:int -> ?jobs:int ->
  Store.t -> Dolx_index.Tag_index.t -> t

(** Number of worker slots. *)
val jobs : t -> int

(** The per-slot reader handles (for statistics inspection). *)
val readers : t -> Store.t list

(** Release every reader's epoch pin (so superseded page versions can
    be retired).  The executor must not be used afterwards.
    Idempotent. *)
val shutdown : t -> unit

(** Bracket {!create} / {!shutdown} around [f]; the pins are released
    even when [f] raises. *)
val with_executor :
  ?value_index:Dolx_index.Value_index.t -> ?pool_capacity:int -> ?jobs:int ->
  Store.t -> Dolx_index.Tag_index.t -> (t -> 'a) -> 'a

(** {1 Inter-query parallelism} *)

(** Evaluate independent queries across the slots.  With [jobs > 1],
    one domain per slot claims queries from a shared counter; every
    domain is joined before this returns, and none is left running.
    If queries raise, the rest of the batch still runs and the first
    failure recorded is re-raised after the join.  With [jobs = 1] the
    queries run inline on the calling domain and a failure propagates
    at once.  Results are in submission order, each equal to
    [Engine.run] on the same input. *)
val run_batch : t -> (Dolx_nok.Pattern.t * Engine.semantics) list -> Engine.result list

(** {!run_batch} over XPath strings.
    @raise Dolx_nok.Xpath.Parse_error on a malformed query. *)
val query_batch : t -> (string * Engine.semantics) list -> Engine.result list

(** {1 Statistics} *)

(** Zero every reader's statistics and the shared disk's
    ({!Dolx_core.Secure_store.reset_stats} on each reader). *)
val reset_stats : t -> unit
