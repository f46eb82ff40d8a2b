(** Per-subject access-run index.

    DOL accessibility is piecewise-constant over document order: between
    two transition nodes every node carries the same ACL, and for a
    fixed subject consecutive transitions frequently agree.  This module
    keeps, per subject, the sorted preorders where the subject's verdict
    flips — a run start, then the first preorder past that run, and so
    on — typically far fewer than the transitions.  Membership is the
    parity of the flips at or before a node.  A {!walk} answers exactly
    two questions on a list, from its position: is a node accessible
    ({!mem}), and what is the run segment around it ({!locate}).  A
    probe inside the last segment searches nothing, a later one gallops
    forward and an earlier one backward, inside the probe's 64
    Ki-preorder block.  Document-order scans thus advance in O(1), and a
    sorted candidate scan that holds a located segment decides every
    candidate inside it by compare and skips a whole denied run with
    one seek.

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

(** {1 Walks} *)

(** A position on one flip list: the segment of preorders around the
    last probe that share its flip count, and that count.  Unsynchronized
    and allocation-free to probe; one per walk, private to one domain.
    Any probe order is correct; ascending probes are the cheap ones. *)
type walk

(** [walk r] — a fresh position on [r]. *)
val walk : runs -> walk

(** Is node [v] inside an accessible run? *)
val mem : walk -> int -> bool

(** A stretch [\[lo, hi)] of preorders that share one verdict, [ok].
    Caller-owned and filled in place by {!locate}, so a scan that keeps
    one decides every node inside it with two compares.  A fresh one is
    empty ([lo = hi = 0]) and contains no preorder. *)
type segment = { mutable lo : int; mutable hi : int; mutable ok : bool }

val segment : unit -> segment

(** [locate w v s] fills [s] with the maximal stretch around node [v]
    (inside [\[0, n)], for the list's [n] nodes) whose nodes share
    [v]'s verdict, and that verdict: each end is a flip or the
    document's edge.  Costs one probe of [w], like {!mem}; allocates
    nothing.  Range questions follow: [\[lo, hi\]] is all accessible
    (all denied) iff the segment at [lo] is accessible (denied) and
    [hi < s.hi]; the least accessible node [>= v] is [v] in an
    accessible segment, else [s.hi], and none when that is [n]. *)
val locate : walk -> int -> segment -> unit

(** {1 Cursors}

    A cursor holds one handle's last answer — a list, for one (subject,
    generation) pair — and a {!walk} on it, so a document-order
    traversal advances monotonically instead of searching per node, and
    counts the table hits its handle made.  Cursors are cheap,
    unsynchronized, and private to one reader; create one per handle. *)

type cursor

val cursor : unit -> cursor

(** Add the hits [cu] counted since its last fold to [runs.hits].  Call
    it from the cursor's domain, or after synchronizing with it.  A hit
    is a list lookup that found its list cached, not a run answer: the
    cursor's walk answers repeat checks on its list with no lookup, so
    [runs.hits] (and perfbench's [core.runs_build_ratio], builds over
    builds plus hits) tracks how often a handle changes list.  Builds
    per query is the figure that shows the index's cache at work. *)
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

(** [walk_for t cu ~dol ~subject] — [cu]'s own walk, on the list
    {!runs_for} answers.  Only a change of subject or generation (of
    [dol], live or pinned) reaches {!runs_for} and its hit count; a
    repeat keeps the walk where its last probe left it. *)
val walk_for : t -> cursor -> dol:Dol.t -> subject:int -> walk

(** {1 Statistics} *)

val run_count : runs -> int

(** Nodes covered by accessible runs. *)
val covered : runs -> int

(** [covered / n_nodes]. *)
val accessible_fraction : runs -> float

val bytes : runs -> int

(** [of_flips ~n flips] — the list over [n] nodes whose flips are
    [flips]: accessible from [flips.(0)] up to [flips.(1)], and so on.
    For tests and tools.
    @raise Invalid_argument unless [flips] ascends strictly inside
    [\[0, n)]. *)
val of_flips : n:int -> int array -> runs
