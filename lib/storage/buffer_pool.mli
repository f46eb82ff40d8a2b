(** A buffer pool over the simulated {!Disk} with LRU replacement.  The
    counters here are what demonstrate the paper's key claim that ε-NoK's
    access checks are served from already-resident pages (§3.3, §5.2).

    Transient disk read faults are retried a bounded number of times;
    {!flush_all} attempts every dirty frame before reporting failures. *)

(** Raised by {!flush_all} (and {!clear}) after attempting every dirty
    frame: the pages that could not be written back, with the exception
    each write raised, sorted by page id.  Frames that did flush are
    clean; the failed ones remain dirty. *)
exception Flush_failed of (int * exn) list

type stats = {
  mutable touches : int;  (** logical page accesses *)
  mutable hits : int;
  mutable misses : int;
  mutable retries : int;  (** re-reads after transient disk faults *)
  mutable evictions : int;  (** frames recycled to make room *)
  mutable eviction_flush_failures : int;
      (** evictions aborted because the victim's dirty flush faulted; the
          victim stays resident (and dirty), so no modified page is
          dropped *)
}

type t

(** [max_read_retries] (default 3) bounds how many times a miss's disk
    read is retried after a [Disk.Fault Transient_read]; permanent
    faults ([Bad_page], [Checksum_mismatch]) are never retried.
    [?epoch] pins the pool to a snapshot: misses resolve through the
    disk's version chains to the page images live at that (pinned)
    epoch.  Pinned pools are for readers: their frames are the disk's
    shared, immutable images, and {!mark_dirty} refuses them.  An
    unpinned pool copies each image into a private frame.
    @raise Invalid_argument when [capacity < 1] or
    [max_read_retries < 0]. *)
val create : ?capacity:int -> ?max_read_retries:int -> ?epoch:int -> Disk.t -> t

val disk : t -> Disk.t

val stats : t -> stats

(** Add what {!stats} gained since the last fold to the [pool.*]
    registry counters, and move the marks forward.  Call it from the
    pool's domain, or after synchronizing with it. *)
val fold_metrics : t -> unit

(** Fold, then zero every {!stats} field and its mark. *)
val reset_stats : t -> unit

(** Fetch a page, reading from disk on a miss (evicting LRU when full).
    The returned bytes are the pool's frame: read-only unless followed by
    {!mark_dirty}.
    @raise Disk.Fault when the read keeps failing after
    [max_read_retries] retries, the page is bad, or its checksum does
    not verify.  The pool is left consistent: the page is simply not
    resident.  Also raised when eviction is needed and the victim's
    dirty flush faults — the victim then stays resident and dirty
    (counted in [eviction_flush_failures]); no modified page is ever
    silently dropped. *)
val get : t -> int -> Page.t

(** Declare the cached copy of page [id] modified in place.

    {b Contract}: call this immediately after the {!get} that returned
    the frame you mutated, {e before} any other [get] — a later [get]
    may evict the (still clean-looking) frame and the modification is
    silently lost.  Calling it on a non-resident page therefore raises
    rather than degrades to a no-op.
    @raise Invalid_argument when the page is not resident, or when the
    pool is pinned. *)
val mark_dirty : t -> int -> unit

(** Write all dirty frames back to disk.  Every dirty frame is attempted
    even when some fail.
    @raise Flush_failed listing each page that could not be written. *)
val flush_all : t -> unit

(** Flush and drop all frames (counters kept).  Frames are dropped even
    when flushing fails.
    @raise Flush_failed as for {!flush_all}. *)
val clear : t -> unit

val resident : t -> int -> bool
