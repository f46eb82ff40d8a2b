(** Group commit: batch concurrent durable updates into shared flushes.

    Keeps the current {!Db_file} image and one live store — the state
    that image loads as — in memory; domains submit update closures, a
    leader drains up to [max_batch] of them, applies each to the live
    store, appends its journal record ({!Db_file.add_update}: a batch's
    records go into one buffer holding the image once) and makes the
    whole batch durable with a {e single} modeled flush before
    waking the submitters.  No record reloads the image: {!create}
    loads it once, and only an update that raises reloads the store
    (from the image as of the last record), so a failed update commits
    nothing.  Crash safety is the record format's: a torn batch loads as
    the state after some prefix of the committed records, and replay is
    idempotent.  The wait is bounded by [max_batch]: a submitter waits
    for at most one in-flight batch plus its own.

    Flushes are modeled (counted and priced at [flush_cost_us]), like
    every storage cost in this repository, so benchmarks report modeled
    durable throughput independent of host fsync behavior.  Metrics:
    [commit.batches], [commit.records], [commit.flushes]. *)

type t

type stats = {
  batches : int;  (** leader drains (one flush each) *)
  records : int;  (** updates committed; one that raised is not *)
  flushes : int;  (** modeled flushes (= batches + checkpoints) *)
  modeled_flush_us : int;  (** flushes × flush_cost_us *)
}

(** [create image] starts a commit group over a database image (clean
    or journaled), loading its live store.  [max_batch] (default 8)
    bounds records per flush; [flush_cost_us] (default 5000) prices one
    modeled flush.
    @raise Invalid_argument on an empty image or [max_batch < 1]. *)
val create : ?pool_capacity:int -> ?max_batch:int -> ?flush_cost_us:int ->
  Bytes.t -> t

val max_batch : t -> int

(** Submit one durable update and block until it is flushed.  The first
    waiter becomes the batch leader; later waiters piggyback on its
    flush.  An update that raises commits nothing; its exception is
    re-raised here while the rest of its batch commits normally. *)
val submit : t -> (Secure_store.t -> unit) -> unit

(** Deterministic batching for a single caller: apply the updates in
    order, one flush per [max_batch] chunk — exactly
    [ceil (n / max_batch)] flushes.  Must not race with other
    submitters on the same [t].  Re-raises the first failing update's
    exception after all chunks are flushed. *)
val submit_batch : t -> (Secure_store.t -> unit) list -> unit

(** The current durable image (journaled between checkpoints). *)
val image : t -> Bytes.t

(** Compact the image to a clean one — the live store serialized with
    the image's registries, no load — install and return it.  Costs one
    modeled flush; serializes with in-flight batches. *)
val checkpoint : t -> Bytes.t

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
