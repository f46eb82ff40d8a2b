(** A secured XML store: the NoK page layout with embedded DOL codes, a
    buffer pool, and the in-memory codebook + page-header table (§3.2).

    All navigation used by query evaluation goes through this module so
    that page touches, buffer hits and disk reads are accounted; the
    access check for a node is served from the node's own (already
    resident) page — "the access control check for d requires no
    additional I/O" (§3.3). *)

module Tree = Dolx_xml.Tree
module Nok_layout = Dolx_storage.Nok_layout
module Buffer_pool = Dolx_storage.Buffer_pool
module Disk = Dolx_storage.Disk
module Epoch = Dolx_storage.Epoch
module Metrics = Dolx_obs.Metrics
module Path_summary = Dolx_index.Path_summary

(* Registry counters for the [counts] fields, fed by {!fold_metrics}. *)
let c_access_checks = Metrics.counter "store.access_checks"

let c_header_skips = Metrics.counter "store.header_skips"

let c_codebook_lookups = Metrics.counter "store.codebook_lookups"

let c_run_answers = Metrics.counter "store.run_answers"

let g_summary_nodes = Metrics.gauge "summary.nodes"

(* Deliberate fault site for the differential fuzzer's self-test (see
   docs/ARCHITECTURE.md): when armed, node 3 is reported inaccessible
   regardless of its label, so the fuzzer must catch and shrink the
   divergence.  Armed only via DOLX_FUZZ_PLANT_BUG; tests may also
   toggle the ref in-process. *)
let planted_bug =
  ref
    (match Sys.getenv_opt "DOLX_FUZZ_PLANT_BUG" with
    | Some ("access" | "1") -> true
    | _ -> false)

(* Second planted fault site, for the MVCC linearizability checks: when
   armed, {!reader} skips epoch pinning and hands out the LIVE dol /
   layout / un-pinned pool, so a reader overlapping an update observes a
   half-applied splice.  Armed by DOLX_FUZZ_PLANT_BUG=stale(-snapshot). *)
let planted_stale =
  ref
    (match Sys.getenv_opt "DOLX_FUZZ_PLANT_BUG" with
    | Some ("stale" | "stale-snapshot") -> true
    | _ -> false)

(* What a writer publishes at the end of each update window: the epoch
   the state became current at, plus immutable snapshots of the DOL and
   the page-table view.  Readers pair this with an epoch-pinned buffer
   pool (page images from the disk's version chains) for a fully
   consistent image. *)
type pub = {
  p_epoch : int;
  p_dol : Dol.t; (* shallow snapshot: arrays never mutated in place *)
  p_layout : Nok_layout.t; (* frozen *)
}

(* One handle's check counts: plain ints bumped on the hot path, added
   to the registry by {!fold_metrics}. *)
type counts = {
  mutable access_checks : int;
  mutable header_skips : int; (* page loads avoided via the header check *)
  mutable codebook_lookups : int; (* Codebook.grants evaluations *)
  mutable run_answers : int; (* checks answered by the run index *)
}

let zero_counts () =
  { access_checks = 0; header_skips = 0; codebook_lookups = 0; run_answers = 0 }

type t = {
  tree : Tree.t;
  (* DataGuide path summary of [tree].  Tree structure is immutable
     within a store's lifetime (structural updates go through
     [rebuild]), so every epoch's readers share it unchanged. *)
  summary : Path_summary.t;
  mutable use_summary : bool;
  mutable dol : Dol.t;
  layout : Nok_layout.t;
  pool : Buffer_pool.t;
  disk : Disk.t;
  pool_capacity : int;
  (* Scan-resume cursor for [Nok_layout.code_in_force_at]: per handle,
     so reader handles never share scan state. *)
  cursor : Nok_layout.cursor;
  (* Per-subject access-run index (shared across reader handles; builds
     are internally synchronized) and this handle's private run cursor. *)
  runs : Access_runs.t;
  mutable use_runs : bool;
  run_cursor : Access_runs.cursor;
  mutable counts : counts;
  mutable folded : counts; (* the values of [counts] at the last fold *)
  (* Fail-secure quarantine: sorted disjoint preorder ranges [lo, hi]
     whose label pages could not be recovered after corruption.  Access
     to a quarantined node is denied for every subject — recovery must
     never fail open. *)
  quarantine : (int * int) array;
  (* MVCC shared state (one per store family, shared by all handles):
     the snapshot the writer last published, and the writer lock
     serializing update windows.  [epoch_pin] is per-handle: [Some e]
     marks an epoch-pinned reader handle. *)
  published : pub Atomic.t;
  write_m : Mutex.t;
  mutable epoch_pin : int option;
}

(* Build the path summary and publish its size gauge. *)
let structural_tier tree =
  let summary = Path_summary.build tree in
  Metrics.gauge_set g_summary_nodes
    (float_of_int (Path_summary.node_count summary));
  summary

(** Assemble a store from pre-built parts (database-file loading): the
    layout must already live on [disk].  [quarantine] lists preorder
    ranges whose labels were lost to corruption and must be denied. *)
let assemble ?(pool_capacity = 64) ?(quarantine = []) ?(run_index = true)
    ?(path_summary = true) ~tree ~dol ~disk ~layout () =
  if Dol.n_nodes dol <> Tree.size tree then
    invalid_arg "Secure_store.assemble: tree / DOL size mismatch";
  List.iter
    (fun (lo, hi) ->
      if lo < 0 || hi < lo || hi >= Tree.size tree then
        invalid_arg "Secure_store.assemble: bad quarantine range")
    quarantine;
  let quarantine_a =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) quarantine)
  in
  let pool = Buffer_pool.create ~capacity:pool_capacity disk in
  let summary = structural_tier tree in
  { tree; summary; use_summary = path_summary;
    dol; layout; pool; disk; pool_capacity;
    cursor = Nok_layout.cursor layout;
    (* quarantined ranges are subtracted at run-build time, so a run
       verdict is already fail-secure *)
    runs = Access_runs.create ~deny:quarantine dol;
    use_runs = run_index;
    run_cursor = Access_runs.cursor ();
    counts = zero_counts (); folded = zero_counts ();
    quarantine = quarantine_a;
    published =
      Atomic.make
        {
          p_epoch = Epoch.current (Disk.epoch disk);
          p_dol = Dol.snapshot dol;
          p_layout = Nok_layout.freeze layout;
        };
    write_m = Mutex.create ();
    epoch_pin = None }

let create ?(page_size = 4096) ?(pool_capacity = 64) ?(fill = 0.9)
    ?(run_index = true) ?(path_summary = true) tree dol =
  if Dol.n_nodes dol <> Tree.size tree then
    invalid_arg "Secure_store.create: tree / DOL size mismatch";
  let disk = Disk.create ~page_size () in
  let transitions = Array.of_list (Dol.transitions dol) in
  let layout = Nok_layout.build ~fill disk tree ~transitions in
  assemble ~pool_capacity ~run_index ~path_summary ~tree ~dol ~disk ~layout ()

(** A read-only evaluation handle over the same store: shares the
    immutable parts (tree, DOL, layout, disk, quarantine) but owns a
    fresh buffer pool, scan cursor and I/O statistics.  Handles can be
    used concurrently from separate domains as long as no mutation
    ({!Update}, {!rebuild}) runs — the disk serializes physical I/O
    internally, and everything else a reader touches is private or
    read-only.  [pool_capacity] defaults to the parent's. *)
let reader ?pool_capacity t =
  let pool_capacity =
    match pool_capacity with Some c -> c | None -> t.pool_capacity
  in
  let epoch_pin, dol, layout =
    if !planted_stale then
      (* Planted MVCC bug: hand out the LIVE dol / layout and an
         un-pinned pool, so this "reader" observes in-flight updates —
         the linearizability fuzz must catch it. *)
      (None, t.dol, t.layout)
    else begin
      (* Pin-then-validate: pin the current epoch, then check that the
         published snapshot is the one current at that epoch.  The
         writer publishes the new snapshot BEFORE advancing the epoch,
         so a mismatch only happens in that short window — retry. *)
      let ep = Disk.epoch t.disk in
      let rec pin () =
        let e = Epoch.pin ep in
        let s = Atomic.get t.published in
        if s.p_epoch = e then (Some e, s.p_dol, s.p_layout)
        else begin
          Epoch.unpin ep e;
          Domain.cpu_relax ();
          pin ()
        end
      in
      pin ()
    end
  in
  {
    t with
    dol;
    layout;
    pool = Buffer_pool.create ~capacity:pool_capacity ?epoch:epoch_pin t.disk;
    cursor = Nok_layout.cursor layout;
    run_cursor = Access_runs.cursor ();
    pool_capacity;
    counts = zero_counts ();
    folded = zero_counts ();
    epoch_pin;
  }

(* The disk folds under its own lock and marks, since readers share it. *)
let fold_metrics t =
  let c = t.counts and f = t.folded in
  Metrics.add c_access_checks (c.access_checks - f.access_checks);
  Metrics.add c_header_skips (c.header_skips - f.header_skips);
  Metrics.add c_codebook_lookups (c.codebook_lookups - f.codebook_lookups);
  Metrics.add c_run_answers (c.run_answers - f.run_answers);
  t.folded <- { c with access_checks = c.access_checks };
  Buffer_pool.fold_metrics t.pool;
  Disk.fold_metrics t.disk

(** Release a reader's epoch pin (idempotent; no-op on non-pinned
    handles), then fold.  Retirement of page versions nobody can see
    anymore piggybacks on release, so long-running stores do not
    accumulate superseded images. *)
let release t =
  (match t.epoch_pin with
  | None -> ()
  | Some e ->
      t.epoch_pin <- None;
      Epoch.unpin (Disk.epoch t.disk) e;
      ignore (Disk.retire t.disk));
  fold_metrics t

(** Epoch this handle reads at: the pinned epoch for a reader, the
    current epoch for the live store. *)
let snapshot_epoch t =
  match t.epoch_pin with
  | Some e -> e
  | None -> Epoch.current (Disk.epoch t.disk)

let with_reader ?pool_capacity t f =
  let r = reader ?pool_capacity t in
  Fun.protect ~finally:(fun () -> release r) (fun () -> f r)

(* Publish the live state as the next epoch's snapshot.  Order matters:
   set the new [pub] (stamped current+1) first, THEN advance the clock —
   readers pin-then-validate, so they only ever pair epoch [e] with the
   snapshot published for [e]. *)
let publish t =
  let ep = Disk.epoch t.disk in
  Atomic.set t.published
    {
      p_epoch = Epoch.current ep + 1;
      p_dol = Dol.snapshot t.dol;
      p_layout = Nok_layout.freeze t.layout;
    };
  ignore (Epoch.advance ep);
  ignore (Disk.retire t.disk)

(** Run [f] as one update window: takes the writer lock, runs [f] on the
    live store, and on success publishes the result as a new epoch so
    subsequent readers see it (readers pinned before the window keep
    their snapshot).  On exception the epoch is NOT advanced — pages
    already written have their pre-images saved in the disk's version
    chains, so pinned readers are still consistent, and the next
    successful window supersedes the partial state.
    @raise Invalid_argument when called on a reader handle. *)
let with_write t f =
  (match t.epoch_pin with
  | Some _ -> invalid_arg "Secure_store.with_write: reader handle"
  | None -> ());
  Mutex.lock t.write_m;
  Fun.protect
    ~finally:(fun () ->
      fold_metrics t;
      Mutex.unlock t.write_m)
    (fun () ->
      let r = f t in
      publish t;
      r)

let quarantined t = Array.to_list t.quarantine

let in_quarantine t v =
  (* Few ranges in practice; linear scan with early exit on sorted lo. *)
  let n = Array.length t.quarantine in
  let rec go i =
    if i >= n then false
    else
      let lo, hi = t.quarantine.(i) in
      if v < lo then false else v <= hi || go (i + 1)
  in
  n > 0 && go 0

let tree t = t.tree
let dol t = t.dol
let layout t = t.layout
let pool t = t.pool
let disk t = t.disk
let codebook t = Dol.codebook t.dol
let run_index t = t.runs
let run_index_enabled t = t.use_runs
let set_run_index t b = t.use_runs <- b
let path_summary t = t.summary
let summary_enabled t = t.use_summary
let set_summary t b = t.use_summary <- b

(** Re-publish the path-summary size gauge (it is zeroed by a registry
    [Metrics.reset], e.g. at the start of a measured window). *)
let refresh_gauges t =
  Metrics.gauge_set g_summary_nodes
    (float_of_int (Path_summary.node_count t.summary))

(** {1 Statistics} *)

type io_stats = {
  page_touches : int;
  pool_hits : int;
  pool_misses : int;
  disk_reads : int;
  disk_writes : int;
  access_checks : int;
  header_skips : int;
  codebook_lookups : int;
  run_answers : int;
}

let io_stats t =
  let ps = Buffer_pool.stats t.pool in
  let ds = Disk.stats t.disk in
  let c = t.counts in
  {
    page_touches = ps.Buffer_pool.touches;
    pool_hits = ps.Buffer_pool.hits;
    pool_misses = ps.Buffer_pool.misses;
    disk_reads = ds.Disk.reads;
    disk_writes = ds.Disk.writes;
    access_checks = c.access_checks;
    header_skips = c.header_skips;
    codebook_lookups = c.codebook_lookups;
    run_answers = c.run_answers;
  }

let reset_stats t =
  fold_metrics t;
  Buffer_pool.reset_stats t.pool;
  Disk.reset_stats t.disk;
  t.counts <- zero_counts ();
  t.folded <- zero_counts ()

let pp_io ppf s =
  Fmt.pf ppf
    "touches=%d hits=%d misses=%d disk_reads=%d disk_writes=%d checks=%d \
     skips=%d lookups=%d run_answers=%d"
    s.page_touches s.pool_hits s.pool_misses s.disk_reads s.disk_writes
    s.access_checks s.header_skips s.codebook_lookups s.run_answers

(** {1 Navigation (with I/O accounting)}

    The structural answers come from the resident pointer arena, one
    array load each; every visited node costs a touch of its page, which
    is how the paper's NoK evaluator behaves ("nodes connected by
    next-of-kin relationships are clustered … a NoK query processor can
    match a NoK pattern using just a few I/O operations", §3.1). *)

let touch t v = ignore (Nok_layout.touch t.layout t.pool v)

(** FIRST-CHILD of Algorithm 1: position of the first child, read from
    the arena without fetching the child's page — the caller decides
    whether to visit (fetch) it, which is what lets the header
    optimization of §3.3 skip provably-inaccessible pages.  Returns
    [Tree.nil] if none. *)
let first_child t v = Tree.first_child t.tree v

(** FOLLOWING-SIBLING of Algorithm 1.  Returns [Tree.nil] if none. *)
let following_sibling t v = Tree.next_sibling t.tree v

let parent t v = Tree.parent t.tree v

let subtree_end t v = Tree.subtree_end t.tree v

let is_ancestor t a d = Tree.is_ancestor t.tree a d

let tag t v = Tree.tag t.tree v

let text t v = Tree.text t.tree v

(** {1 Access checks (§3.3)} *)

(** ACCESS of Algorithm 1: the code in force at [v] is found on [v]'s own
    page, so this incurs no I/O beyond the page the evaluator already
    loaded to visit [v]. *)
let grants (t : t) code subject =
  t.counts.codebook_lookups <- t.counts.codebook_lookups + 1;
  Codebook.grants (Dol.codebook t.dol) code subject

(* Answer one check from the run index through this handle's cursor. *)
let run_verdict (t : t) ~subject v =
  t.counts.run_answers <- t.counts.run_answers + 1;
  Access_runs.accessible t.runs t.run_cursor ~dol:t.dol ~subject v

let accessible (t : t) ~subject v =
  t.counts.access_checks <- t.counts.access_checks + 1;
  if !planted_bug && v = 3 then false
  else if in_quarantine t v then false
  else if t.use_runs then run_verdict t ~subject v
  else
    let code = Nok_layout.code_in_force_at t.layout t.cursor t.pool v in
    grants t code subject

(** Header-only test: true when the in-memory page table already proves
    every node on [v]'s page is inaccessible to [subject] ("if the
    starting transition node in the header indicates non-accessible …
    and the change bit … is not set … the query processor could avoid
    loading that page", §3.3). *)
let page_provably_inaccessible t ~subject v =
  let lp = Nok_layout.page_of t.layout v in
  let h = Nok_layout.header t.layout lp in
  (not h.Nok_layout.change)
  && not (grants t h.Nok_layout.first_code subject)

(** ACCESS with the header optimization: consult the in-memory header
    first and only fall back to loading the page when it cannot decide. *)
let accessible_with_skip (t : t) ~subject v =
  t.counts.access_checks <- t.counts.access_checks + 1;
  if !planted_bug && v = 3 then false
  else if in_quarantine t v then false
  else if t.use_runs then begin
    (* subsumes the header skip: a run verdict needs no page at all,
       whereas the header can only prove whole-page denial.  A granted
       node is still read by the evaluator, so its page is touched —
       the run index only elides I/O for denied nodes. *)
    let ok = run_verdict t ~subject v in
    if ok then touch t v;
    ok
  end
  else if page_provably_inaccessible t ~subject v then begin
    t.counts.header_skips <- t.counts.header_skips + 1;
    false
  end
  else
    let code = Nok_layout.code_in_force_at t.layout t.cursor t.pool v in
    grants t code subject

(** {1 Run-index range queries}

    Set-level accessibility, only available when the run index is on.
    Each helper degrades to a conservative identity when the index is
    off, so callers need no mode split; none of them touches a page. *)

(** Least accessible preorder [>= v]; [v] itself when the index is off
    (no skipping), [n_nodes] when no accessible node remains. *)
let next_accessible t ~subject v =
  if not t.use_runs then v
  else
    match
      Access_runs.next_accessible
        (Access_runs.runs_for t.runs ~dol:t.dol ~subject)
        v
    with
    | Some u -> u
    | None -> Dol.n_nodes t.dol

(** Drop inaccessible nodes from a sorted candidate list (galloping
    intersection with the accessible runs); identity when off. *)
let intersect_accessible t ~subject vs =
  if not t.use_runs then vs
  else Access_runs.intersect (Access_runs.runs_for t.runs ~dol:t.dol ~subject) vs

(** Is every node in [\[lo, hi\]] provably accessible (single-run
    containment)?  [false] means "unknown" when the index is off. *)
let span_provably_accessible t ~subject ~lo ~hi =
  lo > hi
  || (t.use_runs
     && Access_runs.span_inside
          (Access_runs.runs_for t.runs ~dol:t.dol ~subject)
          ~lo ~hi)

(** Accessible fraction for [subject] (cost-model input); 1.0 when the
    index is off, i.e. assume nothing can be pruned. *)
let accessible_fraction t ~subject =
  if not t.use_runs then 1.0
  else
    Access_runs.accessible_fraction
      (Access_runs.runs_for t.runs ~dol:t.dol ~subject)

(** {1 Structural reorganization}

    Accessibility updates are applied in place (see {!Update}); structural
    updates (subtree insert/delete/move) change every following preorder,
    which a dense-preorder layout cannot absorb locally — the paper's
    scheme renumbers too, since nodes are identified by document position.
    [rebuild] lays the new document + DOL out on a fresh disk, reusing the
    page-size/fill configuration of [t]. *)
let rebuild t tree dol =
  let page_size = Dolx_storage.Disk.page_size t.disk in
  create ~page_size ~pool_capacity:t.pool_capacity ~run_index:t.use_runs
    ~path_summary:t.use_summary tree dol
