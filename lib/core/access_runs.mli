(** Per-subject access-run index.

    DOL accessibility is piecewise-constant over document order: between
    two transition nodes every node carries the same ACL, and for a
    fixed subject consecutive transitions frequently agree.  This module
    keeps, per subject, the sorted preorders where the subject's verdict
    flips — a run start, then the first preorder past that run, and so
    on — typically far fewer than the transitions.  Membership is the
    parity of the flips at or before a node, so hot-path checks are
    O(log r), document-order scans are O(1) cursor advances, and a sorted
    candidate scan skips a whole denied run per {!run_from} call.

    A flip list is compact: each flip is its low 16 bits in a [Bytes.t],
    plus a directory of where each 64 Ki-preorder block begins (a
    Roaring-style array container), so it answers by binary search with
    no decode step.

    Lifecycle: a table ({!t}) answers for one policy state, identified
    by its {!Dol.generation} stamp, and holds one cell per subject.  A
    subject's list is built on first use and then stays resident for as
    long as the table lives — there is no capacity and no eviction.  A
    [Secure_store] publishes one table per epoch beside the epoch's DOL
    snapshot; an update that changes one subject's verdicts passes the
    other subjects' cells on to the next table ({!next}).

    Deny ranges (quarantined subtrees from a damaged database image) are
    subtracted at build time, so a run verdict is exactly the secured
    store's verdict, fail-secure included. *)

(** One policy state's table.  Safe to share across domains. *)
type t

(** One subject's flip list.  Immutable; safe to share across domains
    and across tables. *)
type runs

(** [create ?deny dol] — an empty table for [dol]'s current policy
    state.  [deny] lists preorder intervals (inclusive) that must answer
    inaccessible regardless of the DOL, e.g. quarantined pages. *)
val create : ?deny:(int * int) list -> Dol.t -> t

(** [next ?only t dol] — an empty table for [dol]'s current policy
    state, which follows [t]'s, with [t]'s deny ranges and build mutex.
    With [only = s] the two states differ in subject [s]'s verdicts
    alone, so the new table shares every other subject's cell with [t]
    (a list built through either table serves both) and gives [s] a
    fresh cell; without it nothing is shared. *)
val next : ?only:int -> t -> Dol.t -> t

(** The {!Dol.generation} this table answers for. *)
val generation : t -> int

(** Number of subjects whose list is resident in the table. *)
val resident : t -> int

(** Total bytes of the resident lists. *)
val total_bytes : t -> int

(** {1 Cursors}

    A cursor caches one handle's last answer — the list and the flip
    segment around the last node checked — for one (subject,
    generation) pair, so a document-order traversal advances
    monotonically instead of binary-searching per node, and counts the
    table hits its handle made.  Cursors are cheap, unsynchronized, and
    private to one reader; create one per handle.  Any access pattern
    is correct — backward seeks search again. *)

type cursor

val cursor : unit -> cursor

(** Add the hits [cu] counted since its last fold to [runs.hits].  Call
    it from the cursor's domain, or after synchronizing with it. *)
val fold_metrics : cursor -> unit

(** {!runs_for} with a fresh cursor and the DOL the table was made for
    (when that DOL has been updated in place since, the fail-safe
    build answers).  Counted by metrics [runs.hits] / [runs.builds].
    @raise Invalid_argument on an unknown subject. *)
val runs : t -> subject:int -> runs

(** {!runs} as seen by [dol] — the live DOL for the writer, a pinned
    snapshot for an epoch reader — through the caller's cursor.  A
    repeat of [cu]'s last answer needs no table probe; otherwise the
    subject's cell answers (one array index and one [Atomic.get]), and
    a miss builds under the table mutex, re-checking the cell first.
    Every answer that is not a build counts as a hit on [cu] (see
    {!fold_metrics}).  Fail-safe: when [dol]'s generation is not the
    table's, no cached list is served — the list is built, uncached,
    and counted as a build. *)
val runs_for : t -> cursor -> dol:Dol.t -> subject:int -> runs

(** {1 Queries on a list} *)

val run_count : runs -> int

(** Nodes covered by accessible runs. *)
val covered : runs -> int

(** [covered / n_nodes]. *)
val accessible_fraction : runs -> float

val bytes : runs -> int

(** O(log r) membership: is node [v] inside an accessible run? *)
val mem : runs -> int -> bool

(** [run_from r v] — the accessible run holding or following [v], as
    [(lo, hi)]: [lo] is the least accessible preorder [>= v] and [hi]
    the first preorder past its run ([max_int] when the run has no end
    flip).  [(max_int, max_int)] when no accessible node remains. *)
val run_from : runs -> int -> int * int

(** [gate r] — a function equal to [run_from r] for a walk in
    ascending order.  It remembers the rank of its last probe, so a
    later probe in the same 64 Ki-preorder block gallops forward from
    there instead of searching the block again; a backward probe, or
    one in another block, searches from scratch.  Stateful: one gate
    per walk, private to one domain. *)
val gate : runs -> int -> int * int

(** [of_flips ~n flips] — the list over [n] nodes whose flips are
    [flips]: accessible from [flips.(0)] up to [flips.(1)], and so on.
    For tests and tools.
    @raise Invalid_argument unless [flips] ascends strictly inside
    [\[0, n)]. *)
val of_flips : n:int -> int array -> runs

(** Does one run contain the whole interval [\[lo, hi\]]?  Because runs
    are maximal and disjoint, this holds iff every node in the interval
    is accessible.  Empty intervals ([lo > hi]) are contained. *)
val span_inside : runs -> lo:int -> hi:int -> bool

(** {1 Membership} *)

(** [accessible t cu ~dol ~subject v] — membership through the cursor,
    revalidating subject and generation (of [dol], the caller's DOL —
    live or pinned snapshot) as needed.  Only a change of subject or
    generation reaches {!runs_for} (and its hit count). *)
val accessible : t -> cursor -> dol:Dol.t -> subject:int -> int -> bool
