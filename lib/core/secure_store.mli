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
    accessible intervals instead of page decodes, and the engine can
    prune candidate sets by range intersection.  Disable it to measure
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
    already live on [disk].  [quarantine] lists inclusive preorder ranges
    whose access-control labels were lost to storage corruption: every
    access check inside a quarantined range answers [false] for every
    subject (fail-secure — recovery must never fail open).
    @raise Invalid_argument on a malformed range. *)
val assemble :
  ?pool_capacity:int -> ?quarantine:(int * int) list -> ?run_index:bool ->
  ?path_summary:bool ->
  tree:Tree.t -> dol:Dol.t -> disk:Dolx_storage.Disk.t ->
  layout:Dolx_storage.Nok_layout.t -> unit -> t

(** A read-only evaluation handle pinned to the store's current epoch:
    it captures the last-published DOL / layout snapshot and an
    epoch-pinned buffer pool, so it sees an immutable image of the store
    even while {!with_write} windows (splices, subject changes,
    quarantine transitions) run concurrently.  Handles may evaluate
    queries from separate domains — the disk serializes physical page
    I/O internally.  [pool_capacity] defaults to the parent's.
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
    @raise Invalid_argument on a reader handle. *)
val with_write : t -> (t -> 'a) -> 'a

(** The quarantined preorder ranges (sorted, inclusive); empty for stores
    built or rebuilt from source. *)
val quarantined : t -> (int * int) list

val tree : t -> Tree.t

val dol : t -> Dol.t

val layout : t -> Dolx_storage.Nok_layout.t

val pool : t -> Dolx_storage.Buffer_pool.t

val disk : t -> Dolx_storage.Disk.t

val codebook : t -> Codebook.t

(** {1 Run index}

    The per-subject access-run index is shared by all reader handles
    (builds are internally synchronized); each handle owns a private
    run cursor, so concurrent readers never share scan state. *)

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

(** Re-publish the [summary.nodes] gauge after a registry reset. *)
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
    end, {!release}, the end of {!with_write} and after each [Exec]
    barrier; folding twice adds nothing. *)
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

(** Header-only test: the in-memory page table already proves every node
    on [v]'s page inaccessible to [subject] (first code denies, change
    bit clear). No I/O. *)
val page_provably_inaccessible : t -> subject:int -> Tree.node -> bool

(** ACCESS with the header optimization: consult the in-memory header
    first; fetch the page only when it cannot decide.  With the run
    index on, both this and {!accessible} answer from runs without any
    page access — the run verdict subsumes the header skip. *)
val accessible_with_skip : t -> subject:int -> Tree.node -> bool

(** {1 Run-index range queries}

    Set-level accessibility; no page I/O.  Each helper degrades to a
    conservative identity when the run index is off, so callers need no
    mode split. *)

(** Least accessible preorder [>= v]; [v] itself when the index is off,
    [Dol.n_nodes] when no accessible node remains. *)
val next_accessible : t -> subject:int -> Tree.node -> Tree.node

(** Drop inaccessible nodes from a sorted candidate list (galloping
    intersection with the accessible runs); identity when off. *)
val intersect_accessible : t -> subject:int -> Tree.node list -> Tree.node list

(** Is every node of [\[lo, hi\]] provably accessible (contained in one
    accessible run)?  [false] means "unknown" when the index is off. *)
val span_provably_accessible : t -> subject:int -> lo:int -> hi:int -> bool

(** Fraction of nodes accessible to [subject] (cost-model input); 1.0
    when the index is off. *)
val accessible_fraction : t -> subject:int -> float

(** {1 Structural reorganization}

    Accessibility updates are applied in place (see {!Update}); a
    structural update renumbers every following preorder, so the store is
    rebuilt: [rebuild t tree' dol'] lays the new document out on a fresh
    disk with [t]'s page-size and pool configuration. *)
val rebuild : t -> Tree.t -> Dol.t -> t
