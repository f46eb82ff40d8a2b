(** A secured XML store: the NoK page layout with embedded DOL codes, a
    buffer pool, and the in-memory codebook + page-header table (paper
    §3.2).  All navigation used by query evaluation goes through this
    module so page touches, buffer hits and disk I/O are accounted. *)

module Tree = Dolx_xml.Tree

type t

(** Lay [tree] and its DOL out on a fresh simulated disk.  [fill] bounds
    page occupancy at build time (slack absorbs update growth, §3.4).
    [run_index] (default [true]) enables the per-subject access-run
    index ({!Access_runs}): checks are answered from materialized
    accessible intervals instead of page decodes, and the engine's
    candidate scans skip whole denied runs.  Disable it to measure
    the paper's unaided §3.3 path.
    [path_summary] (default [true]) enables DataGuide candidate-class
    pruning in the engine.  The summary is always built; the flag only
    governs use, per handle, so on/off benchmark sides share one
    physical store.
    @raise Invalid_argument on tree/DOL size mismatch. *)
val create :
  ?page_size:int -> ?pool_capacity:int -> ?fill:float -> ?run_index:bool ->
  ?path_summary:bool -> Tree.t -> Dol.t -> t

(** Assemble from pre-built parts (used by {!Db_file}); the layout must
    already live on [disk], laid out at [fill] (default 0.9), the fill
    {!rebuild} uses.  [quarantine] lists inclusive preorder ranges
    whose access-control labels were lost to storage corruption: every
    access check inside a quarantined range answers [false] for every
    subject (fail-secure — recovery must never fail open): the run index
    is built with the ranges denied, and with the index off the page
    path checks the ranges first.
    @raise Invalid_argument on a malformed range. *)
val assemble :
  ?pool_capacity:int -> ?fill:float -> ?quarantine:(int * int) list ->
  ?run_index:bool -> ?path_summary:bool ->
  tree:Tree.t -> dol:Dol.t -> disk:Dolx_storage.Disk.t ->
  layout:Dolx_storage.Nok_layout.t -> unit -> t

(** A read-only evaluation handle pinned to the store's current epoch:
    it captures the last-published DOL / layout snapshot and an
    epoch-pinned buffer pool, so it sees an immutable image of the store
    even while {!with_write} windows (splices, subject changes,
    quarantine transitions) run concurrently.  Handles may evaluate
    queries from separate domains — the disk serializes physical page
    I/O internally.  A reader of a pinned reader pins the same epoch
    and shares its snapshot, so it never sees a later update either.
    [pool_capacity] defaults to the parent's.
    Call {!release} (or use {!with_reader}) when done so superseded page
    versions can be retired. *)
val reader : ?pool_capacity:int -> t -> t

(** Release a reader's epoch pin and {!fold_metrics} the handle, so a
    query that died on a fault still reaches the registry.  Idempotent;
    the pin part is a no-op on the live store handle.  The reader must
    not be used afterwards. *)
val release : t -> unit

(** [with_reader t f] = [f (reader t)] with a guaranteed {!release}. *)
val with_reader : ?pool_capacity:int -> t -> (t -> 'a) -> 'a

(** Epoch this handle reads at: the pinned epoch for a reader, the
    current epoch of the store's clock otherwise. *)
val snapshot_epoch : t -> int

(** [with_write t f] runs [f t] as one serialized update window and, on
    success, publishes the resulting state as a new epoch: readers
    created afterwards see all of [f]'s effects, readers pinned before
    keep their snapshot.  On exception nothing is published (the next
    successful window supersedes the partial state; pinned readers stay
    consistent via the disk's page-version chains).  Either way the
    window ends with a {!fold_metrics}.

    The new epoch gets its own run table ({!run_index}).  Pass
    [only_subject] when [f] makes one DOL change that alters no
    subject's verdicts but [only_subject]'s: the new table then keeps
    every other subject's runs ({!Access_runs.next}).  Otherwise it
    starts empty.
    @raise Invalid_argument on a reader handle. *)
val with_write : ?only_subject:int -> t -> (t -> 'a) -> 'a

(** The quarantined preorder ranges (sorted, inclusive); empty for stores
    built or rebuilt from source. *)
val quarantined : t -> (int * int) list

val tree : t -> Tree.t

val dol : t -> Dol.t

val layout : t -> Dolx_storage.Nok_layout.t

val pool : t -> Dolx_storage.Buffer_pool.t

val disk : t -> Dolx_storage.Disk.t

(** The page fill the store was laid out at ({!create}'s [fill], or
    {!assemble}'s); {!rebuild} lays out at it again. *)
val fill : t -> float

val codebook : t -> Codebook.t

(** {1 Run index}

    Each published epoch has its own access-run table, shared by all
    the reader handles pinned to it (builds are internally
    synchronized); each handle owns a private run cursor, so concurrent
    readers never share scan state. *)

(** This handle's run table: a reader's pinned epoch's, or the last
    published one for the live store. *)
val run_index : t -> Access_runs.t

val run_index_enabled : t -> bool

(** Toggle run-index use on this handle (e.g. for on/off benchmark
    comparisons over the same physical store). *)
val set_run_index : t -> bool -> unit

(** {1 Path summary}

    Built at store creation and immutable for the store's lifetime
    (structural updates go through {!rebuild}), so readers at every
    epoch share it.  The toggle is per-handle (a reader inherits the
    parent handle's setting at creation), mirroring {!set_run_index}. *)

val path_summary : t -> Dolx_index.Path_summary.t

(** Is DataGuide candidate-class pruning available to the engine on this
    handle? *)
val summary_enabled : t -> bool

val set_summary : t -> bool -> unit

(** Re-publish the [summary.nodes] and codebook gauges after a registry
    reset. *)
val refresh_gauges : t -> unit

(** {1 Fuzzer fault site}

    Deliberately wrong behavior used by the differential fuzzer to prove
    it catches and shrinks a planted bug: when armed, {!accessible} and
    {!accessible_with_skip} report node 3 inaccessible regardless of its
    label.  Armed at startup by [DOLX_FUZZ_PLANT_BUG=access] (or [=1]);
    tests may toggle the ref directly.  Never set on production paths. *)
val planted_bug : bool ref

(** Second planted fault site, for the MVCC linearizability checks: when
    armed, {!reader} skips epoch pinning and hands out the live store
    structures, so a reader overlapping an update can observe a
    half-applied splice.  Armed by [DOLX_FUZZ_PLANT_BUG=stale] (or
    [=stale-snapshot]); tests may toggle the ref directly. *)
val planted_stale : bool ref

(** {1 Statistics} *)

type io_stats = {
  page_touches : int;   (** logical page accesses through the pool *)
  pool_hits : int;
  pool_misses : int;
  disk_reads : int;
  disk_writes : int;
  access_checks : int;  (** ACCESS evaluations (§3.3) *)
  header_skips : int;   (** page loads avoided via the header check *)
  codebook_lookups : int;  (** [Codebook.grants] evaluations *)
  run_answers : int;  (** checks answered by the run index (no page decode) *)
}

val io_stats : t -> io_stats

(** Add to the registry what this handle's pool and check counts, and
    its disk, gained since their last fold, and move the marks forward
    (the disk keeps its own, since readers share it).  Called at stream
    end (so each query a [Serve] worker runs folds its own reader),
    {!release} and the end of {!with_write}; folding twice adds
    nothing. *)
val fold_metrics : t -> unit

(** Fold, then zero this handle's pool and check counts and the disk's
    ({!Dolx_storage.Disk.reset_stats}), marks included.  Reset the store
    and then the registry to start both views at zero. *)
val reset_stats : t -> unit

val pp_io : Format.formatter -> io_stats -> unit

(** {1 Navigation}

    Positions come from the resident pointer arena without I/O; the caller
    decides whether to visit (fetch) a node — that is what lets the
    header optimization of §3.3 skip provably-inaccessible pages. *)

(** Fetch the page holding [v] (accounted I/O). *)
val touch : t -> Tree.node -> unit

(** FIRST-CHILD of Algorithm 1; {!Tree.nil} if none. *)
val first_child : t -> Tree.node -> Tree.node

(** FOLLOWING-SIBLING of Algorithm 1; {!Tree.nil} if none. *)
val following_sibling : t -> Tree.node -> Tree.node

val parent : t -> Tree.node -> Tree.node

val subtree_end : t -> Tree.node -> Tree.node

(** Proper ancestorship (interval containment; no I/O). *)
val is_ancestor : t -> Tree.node -> Tree.node -> bool

val tag : t -> Tree.node -> Dolx_xml.Tag.id

val text : t -> Tree.node -> string

(** {1 Access checks (§3.3)} *)

(** ACCESS of Algorithm 1: the code in force is found on [v]'s own page,
    so no I/O beyond the page the evaluator already loaded to visit
    [v]. *)
val accessible : t -> subject:int -> Tree.node -> bool

(** {2 Run segments}

    A scan in document order can decide whole stretches of nodes at
    once: {!locate} hands out the stretch of the run index around a
    node, and the scan decides every node inside it with two compares,
    adding the checks it decided so with {!count_run_checks}. *)

(** A stretch [\[lo, hi)] of preorders sharing one verdict, [ok]
    ({!Access_runs.segment}). *)
type segment = Access_runs.segment = {
  mutable lo : int;
  mutable hi : int;
  mutable ok : bool;
}

(** An empty segment: it contains no preorder. *)
val segment : unit -> segment

(** [locate t ~subject v s] fills [s] with the maximal stretch around
    [v] whose nodes all get [v]'s {!accessible} verdict with the run
    index on, and that verdict.  Each end is a verdict change, the
    document's edge, or a cut of the [access] canary ({!planted_bug}),
    which stands node 3 alone, denied.  It reads the run index through
    this handle's cursor, as {!accessible} does (so a moved DOL
    generation, and the [stale] canary, apply), and quarantined ranges
    are denied in the runs themselves.  No page is read, nothing is
    counted and nothing is allocated.  Meant for handles with the run
    index on: its verdicts are the run index's, whatever
    {!run_index_enabled} says. *)
val locate : t -> subject:int -> Tree.node -> segment -> unit

(** [count_run_checks t n] — count [n] checks answered from the run
    index without calling {!accessible}: [n] access checks, each one a
    run answer.  A scan that decides nodes inside a {!locate} segment
    adds them here, so {!io_stats} read as if {!accessible} had been
    asked once per node. *)
val count_run_checks : t -> int -> unit

(** Header-only test: the in-memory page table already proves every node
    on [v]'s page inaccessible to [subject] (first code denies, change
    bit clear). No I/O. *)
val page_provably_inaccessible : t -> subject:int -> Tree.node -> bool

(** ACCESS with the header optimization: consult the in-memory header
    first; fetch the page only when it cannot decide.  With the run
    index on, both this and {!accessible} answer from runs — the run
    verdict subsumes the header skip — but this one is the visit of a
    plan that reads the node, so it touches a granted node's page.  A
    summary-path step decided without a page asks {!accessible}, which
    touches none. *)
val accessible_with_skip : t -> subject:int -> Tree.node -> bool

(** {1 Connecting paths} *)

(** [path_clear t ~subject ~check ~top v] — the one connecting-path walk
    of secure descendant steps (ε-NoK's path semantics and every ε-STD
    variant): is every node from [v] up its parent chain to, but
    excluding, [top] accessible?  [top] must be an ancestor of [v], [v]
    itself (the empty path) or [Tree.nil] (the whole chain).  With the
    run index on it reads no page and allocates nothing: an accessible
    segment ({!locate}) at [top + 1] that holds [v] proves the path
    clear, and otherwise each path node's run verdict decides
    ({!accessible}).  With it off, [check] — the caller's own visit or
    memoized check, which pays the paper's page reads — decides each
    node bottom-up, stopping at the first denial. *)
val path_clear :
  t -> subject:int -> check:(Tree.node -> bool) -> top:Tree.node -> Tree.node -> bool

(** {1 Structural reorganization}

    Accessibility updates are applied in place (see {!Update}); a
    structural update renumbers every following preorder, so the store is
    rebuilt: [rebuild t tree' dol'] lays the new document out on a fresh
    disk with [t]'s page size, {!fill} and pool configuration. *)
val rebuild : t -> Tree.t -> Dol.t -> t
