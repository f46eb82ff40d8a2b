(** Per-subject access-run index.

    DOL accessibility is piecewise-constant over document order: between
    two transition nodes every node carries the same ACL, and for a
    fixed subject consecutive transitions frequently agree.  This module
    materializes, per subject, the maximal disjoint preorder intervals
    ("runs") on which the subject's accessibility is [true] — typically
    far fewer runs than transitions — turning hot-path checks into
    O(log r) interval lookups, document-order scans into O(1) cursor
    advances that skip whole denied runs, and candidate-set filtering
    into a single galloping intersection.

    Lifecycle (same shape as the per-subject codebook grant slices):
    runs are built lazily on first use, published through an [Atomic.t]
    snapshot so concurrent readers ({!Dolx_exec} pool domains) look them
    up lock-free, stamped with {!Dol.generation} and rebuilt when an
    {!Update} bumps the stamp, and bounded by an LRU of materialized
    subjects so wide subject populations cannot exhaust memory.

    Deny ranges (quarantined subtrees from a damaged database image) are
    subtracted at build time, so a run verdict is exactly the secured
    store's verdict, fail-secure included. *)

(** The index: one per store, shared by all reader handles. *)
type t

(** One subject's materialized runs at a fixed generation.  Immutable;
    safe to share across domains. *)
type runs

(** [create ?capacity ?deny dol] — [capacity] bounds the number of
    subjects materialized at once (default {!default_capacity});
    [deny] lists preorder intervals (inclusive) that must answer
    inaccessible regardless of the DOL, e.g. quarantined pages. *)
val create : ?capacity:int -> ?deny:(int * int) list -> Dol.t -> t

val default_capacity : int

val capacity : t -> int

(** Number of subjects currently materialized. *)
val materialized : t -> int

(** Total bytes held by materialized runs. *)
val total_bytes : t -> int

(** Iterate over materialized subjects (snapshot; no locking). *)
val iter_materialized : (int -> runs -> unit) -> t -> unit

(** {1 Cursors}

    A cursor caches the runs value and the last run position for one
    (subject, generation) pair, so a document-order traversal advances
    monotonically instead of binary-searching per node, and counts the
    table hits its handle made.  Cursors are cheap, unsynchronized, and
    private to one reader; create one per handle.  Any access pattern
    is correct — backward seeks restart. *)

type cursor

val cursor : unit -> cursor

(** Add the hits [cu] counted since its last fold to [runs.hits].  Call
    it from the cursor's domain, or after synchronizing with it. *)
val fold_metrics : cursor -> unit

(** Materialized runs for [subject] at the current generation of the
    live DOL: served from the snapshot when fresh (lock-free), built
    under a mutex when absent or stale.  Counted by metrics [runs.hits]
    / [runs.builds]; LRU evictions by [runs.evictions]. *)
val runs : t -> subject:int -> runs

(** {!runs} as seen by [dol] — the live DOL for the writer, a pinned
    snapshot for an epoch reader — through the caller's cursor: a
    repeat of [cu]'s last answer needs no table probe, and every answer
    that is not a build counts as a hit on [cu] (see {!fold_metrics}).  Entries
    are keyed by (subject, generation), so runs from distinct policy
    states coexist and a snapshot reader never mixes runs from two
    generations. *)
val runs_for : t -> cursor -> dol:Dol.t -> subject:int -> runs

(** {1 Queries on materialized runs} *)

val run_count : runs -> int

(** Nodes covered by accessible runs. *)
val covered : runs -> int

(** [covered / n_nodes]. *)
val accessible_fraction : runs -> float

val bytes : runs -> int

(** O(log r) membership: is node [v] inside an accessible run? *)
val mem : runs -> int -> bool

(** Least accessible preorder [>= v], if any. *)
val next_accessible : runs -> int -> int option

(** Does one run contain the whole interval [\[lo, hi\]]?  Because runs
    are maximal and disjoint, this holds iff every node in the interval
    is accessible.  Empty intervals ([lo > hi]) are contained. *)
val span_inside : runs -> lo:int -> hi:int -> bool

(** Galloping intersection of a sorted candidate list with the
    accessible runs; preserves order and multiplicity. *)
val intersect : runs -> int list -> int list

(** {1 Membership} *)

(** [accessible t cu ~dol ~subject v] — membership through the cursor,
    revalidating subject and generation (of [dol], the caller's DOL —
    live or pinned snapshot) as needed.  Only a change of subject or
    generation reaches {!runs_for} (and its hit count). *)
val accessible : t -> cursor -> dol:Dol.t -> subject:int -> int -> bool

(** {1 Introspection} *)

val pp_runs : Format.formatter -> runs -> unit
