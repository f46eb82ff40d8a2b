(** MVCC snapshot isolation, group commit, and teardown hygiene.

    Epoch-pinned readers must keep the exact pre-update image across
    concurrent accessibility / subject-population updates; fresh readers
    must see exactly the post-update image; superseded page versions
    must be retired once the last pin holding them is released.  The
    journal's record sequence must replay idempotently (including across
    a torn group-commit batch), [Group_commit] must amortize flushes at
    the predicted rate, and service teardown must release every domain,
    epoch pin, and file descriptor even when a query raises. *)

module Tree = Dolx_xml.Tree
module Prng = Dolx_util.Prng
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Db_file = Dolx_core.Db_file
module Group_commit = Dolx_core.Group_commit
module Disk = Dolx_storage.Disk
module Epoch = Dolx_storage.Epoch
module Buffer_pool = Dolx_storage.Buffer_pool
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Gen = Dolx_fuzz.Gen
module Diff = Dolx_fuzz.Diff

let check = Alcotest.check

let make_store ?(nodes = 400) ?(page_size = 256) ?(subjects = 4) seed =
  let tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects:subjects ()
  in
  Store.create ~page_size ~pool_capacity:8 tree (Dol.of_labeling labeling)

let matrix store =
  let n = Tree.size (Store.tree store) in
  let w = Codebook.width (Store.codebook store) in
  Array.init w (fun s ->
      Array.init n (fun v -> Store.accessible store ~subject:s v))

let check_matrix name want store =
  let got = matrix store in
  if got <> want then Alcotest.failf "%s: matrix differs" name

(* --- snapshot isolation --- *)

let test_snapshot_isolation () =
  let store = make_store 11 in
  let n = Tree.size (Store.tree store) in
  let pre = matrix store in
  let pinned = Store.reader store in
  let s, v = (1, n / 3) in
  let grant = not pre.(s).(v) in
  ignore (Update.set_node_accessibility store ~subject:s ~grant v);
  Update.set_subtree_accessibility store ~subject:2 ~grant:false (n / 2);
  let post = matrix store in
  if post = pre then Alcotest.fail "updates changed nothing";
  check_matrix "pinned reader keeps pre-update image" pre pinned;
  Store.with_reader store (check_matrix "fresh reader sees post-update image" post);
  check_matrix "pinned reader still pre after fresh probe" pre pinned;
  Store.release pinned;
  Store.release pinned (* idempotent *);
  check Alcotest.int "all page versions retired after last release" 0
    (Disk.live_versions (Store.disk store))

(* A reader taken from a pinned reader pins the same epoch: after an
   update window it still answers from the pre-update snapshot, and
   keeps it after its parent is released. *)
let test_reader_of_pinned_reader () =
  let store = make_store ~nodes:1500 ~page_size:1024 19 in
  let index = Tag_index.build (Store.tree store) in
  let q = Dolx_nok.Xpath.parse "//name" in
  let answers ?(subject = 0) h =
    (Engine.run h index q (Engine.Secure subject)).Engine.answers
  in
  let subject =
    match List.find_opt (fun s -> answers ~subject:s store <> []) [ 0; 1; 2; 3 ] with
    | Some s -> s
    | None -> Alcotest.fail "the query has no answer to lose"
  in
  let answers = answers ~subject in
  let pre = answers store in
  let pinned = Store.reader store in
  Update.set_subtree_accessibility store ~subject ~grant:false (List.hd pre);
  if answers store = pre then Alcotest.fail "the update changed no answer";
  let child = Store.reader pinned in
  check Alcotest.int "the parent's epoch" (Store.snapshot_epoch pinned)
    (Store.snapshot_epoch child);
  check (Alcotest.list Alcotest.int) "pre-update answers" pre (answers child);
  Store.release pinned;
  check (Alcotest.list Alcotest.int) "still pre-update after the parent's release"
    pre (answers child);
  Store.release child;
  check Alcotest.int "pins released" 0
    (Epoch.pin_count (Disk.epoch (Store.disk store)));
  check Alcotest.int "versions retired" 0 (Disk.live_versions (Store.disk store))

(* A pinned reader's pool borrows the disk's page image.  Images are
   immutable, so the frame it holds keeps the pre-update bytes after the
   writer replaces that page and the retired version leaves the chain. *)
let test_borrowed_frame_survives_retire () =
  let store = make_store 15 in
  let n = Tree.size (Store.tree store) in
  let v = n / 3 in
  let pinned = Store.reader store in
  let layout = Store.layout pinned in
  let pid = Nok_layout.physical_page layout (Nok_layout.page_of layout v) in
  let frame = Buffer_pool.get (Store.pool pinned) pid in
  let before = Bytes.copy frame in
  let grant = not (Store.accessible store ~subject:0 v) in
  ignore (Update.set_node_accessibility store ~subject:0 ~grant v);
  if Bytes.equal (Disk.read (Store.disk store) pid) before then
    Alcotest.fail "the update did not rewrite the reader's page";
  Store.release pinned;
  check Alcotest.int "version retired" 0 (Disk.live_versions (Store.disk store));
  check Alcotest.bool "borrowed frame unchanged" true (Bytes.equal frame before)

let test_retire_horizon () =
  let store = make_store 12 in
  let n = Tree.size (Store.tree store) in
  let m0 = matrix store in
  let r1 = Store.reader store in
  ignore (Update.set_node_accessibility store ~subject:0 ~grant:(not m0.(0).(1)) 1);
  let m1 = matrix store in
  let r2 = Store.reader store in
  Update.set_subtree_accessibility store ~subject:1 ~grant:false (n / 4);
  let m2 = matrix store in
  (* two generations of versions retained for the two pins *)
  if Disk.live_versions (Store.disk store) = 0 then
    Alcotest.fail "no page versions retained despite pinned readers";
  check_matrix "r1 at epoch e0" m0 r1;
  check_matrix "r2 at epoch e1" m1 r2;
  Store.release r1;
  (* r2's snapshot must survive r1's release *)
  check_matrix "r2 intact after r1 released" m1 r2;
  check_matrix "live store at e2" m2 store;
  Store.release r2;
  check Alcotest.int "all versions retired" 0
    (Disk.live_versions (Store.disk store))

let test_epoch_advance_and_abort () =
  let store = make_store 13 in
  let e0 = Store.snapshot_epoch store in
  let m0 = matrix store in
  ignore (Update.set_node_accessibility store ~subject:0 ~grant:(not m0.(0).(2)) 2);
  check Alcotest.int "successful window advances the epoch" (e0 + 1)
    (Store.snapshot_epoch store);
  let m1 = matrix store in
  (match Store.with_write store (fun _ -> failwith "abort") with
  | () -> Alcotest.fail "with_write swallowed the exception"
  | exception Failure _ -> ());
  check Alcotest.int "aborted window does not advance the epoch" (e0 + 1)
    (Store.snapshot_epoch store);
  check_matrix "store unchanged by aborted window" m1 store;
  (* a reader handle must refuse write windows *)
  Store.with_reader store (fun r ->
      match Store.with_write r (fun _ -> ()) with
      | () -> Alcotest.fail "with_write accepted a reader handle"
      | exception Invalid_argument _ -> ())

let test_subject_population_cow () =
  let store = make_store 14 in
  let n = Tree.size (Store.tree store) in
  let w0 = Codebook.width (Store.codebook store) in
  let pre = matrix store in
  let pinned = Store.reader store in
  let s' = Update.store_add_subject store ~like:0 () in
  check Alcotest.int "new subject appended" w0 s';
  check Alcotest.int "pinned reader keeps the old width" w0
    (Codebook.width (Store.codebook pinned));
  check_matrix "pinned reader verdicts unchanged" pre pinned;
  Store.with_reader store (fun fresh ->
      check Alcotest.int "fresh reader sees the new width" (w0 + 1)
        (Codebook.width (Store.codebook fresh));
      for v = 0 to n - 1 do
        if Store.accessible fresh ~subject:s' v <> pre.(0).(v) then
          Alcotest.failf "cloned subject differs from its template at %d" v
      done);
  Update.store_remove_subject store s';
  Store.with_reader store (fun fresh ->
      check Alcotest.int "width restored after removal" w0
        (Codebook.width (Store.codebook fresh)));
  check_matrix "pinned reader still pre after add+remove" pre pinned;
  Store.release pinned

(* --- journal replay idempotence --- *)

let flip_node (s, v) store =
  let grant = not (Store.accessible store ~subject:s v) in
  ignore (Update.set_node_accessibility store ~subject:s ~grant v)

let test_journal_replay_idempotent () =
  let store = make_store ~nodes:200 15 in
  let n = Tree.size (Store.tree store) in
  let base = Db_file.to_bytes store in
  let targets = [ (0, 3); (1, n / 2); (2, n - 1) ] in
  let images =
    List.fold_left
      (fun acc t -> Db_file.append_update ~image:(List.hd acc) (flip_node t) :: acc)
      [ base ] targets
  in
  let final = List.hd images in
  let m_final = matrix (fst (Db_file.of_bytes final)) in
  (* replaying the journal is idempotent: load, compact, reload — the
     state and the compacted bytes are stable *)
  let clean1 = Db_file.to_bytes (fst (Db_file.of_bytes final)) in
  let clean2 = Db_file.to_bytes (fst (Db_file.of_bytes clean1)) in
  check Alcotest.bool "double replay is byte-identical" true
    (Bytes.equal clean1 clean2);
  if matrix (fst (Db_file.of_bytes clean1)) <> m_final then
    Alcotest.fail "compacted image lost the journaled updates";
  (* torn mid-batch: cutting inside the last record recovers the state
     after the first two, and replaying THAT is just as stable *)
  let i2 = List.nth images 1 in
  let m2 = matrix (fst (Db_file.of_bytes i2)) in
  let torn = Bytes.sub final 0 (Bytes.length final - 1) in
  let recovered, _ = Db_file.of_bytes torn in
  if matrix recovered <> m2 then
    Alcotest.fail "torn batch did not recover the committed prefix";
  let t1 = Db_file.to_bytes recovered in
  let t2 = Db_file.to_bytes (fst (Db_file.of_bytes t1)) in
  check Alcotest.bool "torn recovery replay is byte-identical" true
    (Bytes.equal t1 t2)

(* --- group commit --- *)

let test_group_commit_batching () =
  let store = make_store ~nodes:200 16 in
  let n = Tree.size (Store.tree store) in
  let base = Db_file.to_bytes store in
  let gc = Group_commit.create ~max_batch:4 base in
  let updates = List.init 10 (fun i -> flip_node (i mod 3, (i * 7) mod n)) in
  Group_commit.submit_batch gc updates;
  let s = Group_commit.stats gc in
  check Alcotest.int "10 records committed" 10 s.Group_commit.records;
  check Alcotest.int "ceil(10/4) flushes" 3 s.Group_commit.flushes;
  check Alcotest.int "one flush per batch" s.Group_commit.batches
    s.Group_commit.flushes;
  let expect, _ = Db_file.of_bytes (Group_commit.image gc) in
  let seq =
    List.fold_left (fun img f -> Db_file.append_update ~image:img f) base updates
  in
  if matrix expect <> matrix (fst (Db_file.of_bytes seq)) then
    Alcotest.fail "group-commit state differs from sequential appends";
  let clean = Group_commit.checkpoint gc in
  check Alcotest.int "checkpoint costs one flush" 4
    (Group_commit.stats gc).Group_commit.flushes;
  if matrix (fst (Db_file.of_bytes clean)) <> matrix expect then
    Alcotest.fail "checkpoint changed the state"

let test_group_commit_concurrent () =
  let store = make_store ~nodes:150 17 in
  let n = Tree.size (Store.tree store) in
  let base = Db_file.to_bytes store in
  let gc = Group_commit.create ~max_batch:8 base in
  (* disjoint targets with absolute grants: the final state is the same
     whatever order the leader drains the queue in *)
  let work d =
    List.init 3 (fun i ->
        let v = (d * 3) + i in
        fun st -> ignore (Update.set_node_accessibility st ~subject:(d mod 3)
                            ~grant:(i mod 2 = 0) (v mod n)))
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () -> List.iter (Group_commit.submit gc) (work d)))
  in
  List.iter Domain.join domains;
  let s = Group_commit.stats gc in
  check Alcotest.int "12 records committed" 12 s.Group_commit.records;
  if s.Group_commit.flushes > 12 then
    Alcotest.failf "more flushes (%d) than records" s.Group_commit.flushes;
  let got = matrix (fst (Db_file.of_bytes (Group_commit.image gc))) in
  let want =
    let st, _ = Db_file.of_bytes base in
    List.iter (fun fs -> List.iter (fun f -> f st) fs) (List.init 4 work);
    matrix st
  in
  if got <> want then Alcotest.fail "concurrent submits lost an update"

(* --- one live store per commit group --- *)

let append_chain base fs =
  List.fold_left (fun img f -> Db_file.append_update ~image:img f) base fs

let loaded_matrix img = matrix (fst (Db_file.of_bytes img))

(* A subject added (rights copied from subject 0) and then one removed:
   updates that change the codebook and no page.  [durable base]
   commits one update on top of the durable image it is given and
   returns the next; after each, the image must load as the in-memory
   store that applied the same updates. *)
let subject_ops = [
  (fun st -> ignore (Update.store_add_subject st ~like:0 ()));
  (fun st -> Update.store_remove_subject st 1);
]

let check_subject_only name durable =
  let store = make_store ~nodes:200 20 in
  let base = Db_file.to_bytes store in
  let step = durable base in
  let w0 = Codebook.width (Store.codebook store) in
  ignore
  @@ List.fold_left
       (fun (i, img) f ->
         let img = step img f in
         f store;
         let got = loaded_matrix img in
         check Alcotest.int
           (Printf.sprintf "%s: width after update %d" name i)
           (if i = 0 then w0 + 1 else w0)
           (Array.length got);
         if got <> matrix store then
           Alcotest.failf "%s: update %d lost (loaded matrix differs)" name i;
         (i + 1, img))
       (0, base) subject_ops

let test_subject_only_append () =
  check_subject_only "append_update" (fun _ img f ->
      Db_file.append_update ~image:img f)

let test_subject_only_apply () =
  check_subject_only "apply_update" (fun _ img f ->
      Db_file.apply_update ~base:img f)

let test_subject_only_group_commit () =
  check_subject_only "Group_commit.submit" (fun base ->
      let gc = Group_commit.create base in
      fun _ f ->
        Group_commit.submit gc f;
        Group_commit.image gc)

(* An update that changes the labeling and then raises. *)
let partial_then_raise (s, v) store =
  flip_node (s, v) store;
  raise Exit

let test_records_count_committed () =
  let store = make_store ~nodes:200 21 in
  let n = Tree.size (Store.tree store) in
  let base = Db_file.to_bytes store in
  let gc = Group_commit.create ~max_batch:4 base in
  (match
     Group_commit.submit_batch gc
       [ flip_node (0, 1); partial_then_raise (1, n / 2); flip_node (2, n - 1) ]
   with
  | () -> Alcotest.fail "submit_batch swallowed the failure"
  | exception Exit -> ());
  check Alcotest.int "submit_batch counts the two committed" 2
    (Group_commit.stats gc).records;
  let gc = Group_commit.create base in
  (match Group_commit.submit gc (partial_then_raise (0, 3)) with
  | () -> Alcotest.fail "submit swallowed the failure"
  | exception Exit -> ());
  let s = Group_commit.stats gc in
  check Alcotest.int "a lone failing submit commits nothing" 0 s.records;
  check Alcotest.int "its batch still flushed" 1 s.flushes;
  check Alcotest.bool "and the image is the base" true
    (Bytes.equal (Group_commit.image gc) base)

(* The raising update sits between committed ones, so a partial effect
   left in the live store would ride into the next record. *)
let test_raising_update_leaves_no_trace () =
  let store = make_store ~nodes:300 22 in
  let n = Tree.size (Store.tree store) in
  let base = Db_file.to_bytes store in
  let oks = [ flip_node (0, 5); flip_node (1, n / 3); flip_node (2, n - 2) ] in
  let bad = partial_then_raise (3, (2 * n) / 3) in
  let want = append_chain base oks in
  let batched = Group_commit.create ~max_batch:3 base in
  (match
     Group_commit.submit_batch batched
       [ List.nth oks 0; bad; List.nth oks 1; List.nth oks 2 ]
   with
  | () -> Alcotest.fail "submit_batch swallowed the failure"
  | exception Exit -> ());
  check Alcotest.bool "submit_batch image = chain of the others" true
    (Bytes.equal (Group_commit.image batched) want);
  let single = Group_commit.create base in
  Group_commit.submit single (List.nth oks 0);
  (match Group_commit.submit single bad with
  | () -> Alcotest.fail "submit swallowed the failure"
  | exception Exit -> ());
  List.iter (Group_commit.submit single) (List.tl oks);
  check Alcotest.bool "submit image = chain of the others" true
    (Bytes.equal (Group_commit.image single) want)

(* Random durable updates: node, subtree, subject added (like another),
   subject removed (when two or more remain), compaction and no-op.
   Raw operands are reduced modulo the width and size at apply time. *)
let op_update (kind, a, b, grant) st =
  let w = Codebook.width (Store.codebook st) in
  let n = Tree.size (Store.tree st) in
  match kind with
  | 0 -> ignore (Update.set_node_accessibility st ~subject:(a mod w) ~grant (b mod n))
  | 1 -> Update.set_subtree_accessibility st ~subject:(a mod w) ~grant (b mod n)
  | 2 -> ignore (Update.store_add_subject st ~like:(a mod w) ())
  | 3 -> if w >= 2 then Update.store_remove_subject st (a mod w)
  | 4 -> Update.store_compact st
  | _ -> ()

let prop_group_commit_equals_chains =
  Fixtures.qtest ~count:40
    "group commit = append chain = apply chain = in-memory store"
    QCheck2.Gen.(
      triple (int_bound 10_000) (int_range 1 6)
        (list_size (int_range 1 12)
           (quad (int_bound 5) (int_bound 1000) (int_bound 1000) bool)))
    (fun (seed, max_batch, ops) ->
      let store = make_store ~nodes:200 ~subjects:3 seed in
      let base = Db_file.to_bytes store in
      let fs = List.map op_update ops in
      let chain = append_chain base fs in
      let gc = Group_commit.create ~max_batch base in
      Group_commit.submit_batch gc fs;
      if not (Bytes.equal (Group_commit.image gc) chain) then
        Alcotest.fail "group-commit image differs from the append chain";
      let clean = Db_file.to_bytes (fst (Db_file.of_bytes chain)) in
      if not (Bytes.equal (Group_commit.checkpoint gc) clean) then
        Alcotest.fail "checkpoint differs from the reloaded chain";
      let applied =
        List.fold_left (fun img f -> Db_file.apply_update ~base:img f) base fs
      in
      if not (Bytes.equal applied clean) then
        Alcotest.fail "apply_update chain differs from the reloaded chain";
      List.iter (fun f -> f store) fs;
      loaded_matrix chain = matrix store)

(* --- teardown hygiene --- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_teardown_on_exception () =
  let store = make_store 18 in
  let index = Tag_index.build (Store.tree store) in
  let ep = Disk.epoch (Store.disk store) in
  let pins0 = Epoch.pin_count ep in
  let fds0 = open_fds () in
  let seen = ref None in
  (match
     Serve.with_service ~jobs:3 (fun srv ->
         seen := Some srv;
         Serve.add_tenant srv "t" (Serve.Mem (store, index));
         ignore
           (Serve.run_batch srv ~tenant:"t"
              [ (Dolx_nok.Xpath.parse "//item", Engine.Insecure) ]);
         failwith "mid-query crash")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  let srv = Option.get !seen in
  check Alcotest.int "all epoch pins released" pins0 (Epoch.pin_count ep);
  check Alcotest.int "no leaked file descriptors" fds0 (open_fds ());
  Serve.shutdown srv (* idempotent *)

(* --- the planted stale-snapshot bug is caught by the fuzz checks --- *)

let test_planted_stale_caught () =
  (* exact shrunk repro the fuzzer reduces the planted bug to *)
  let p =
    {
      Gen.seed = 1;
      nodes = 1;
      n_users = 3;
      n_groups = 0;
      n_rules = 0;
      n_queries = 0;
      trace_len = 1;
      rule_mask = -1;
    }
  in
  check Alcotest.bool "clean stack passes" true (Diff.check_all p = None);
  Store.planted_stale := true;
  Fun.protect
    ~finally:(fun () -> Store.planted_stale := false)
    (fun () ->
      match Diff.check_all p with
      | None -> Alcotest.fail "planted stale-snapshot bug not caught"
      | Some m ->
          let has_sub ~sub s =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          (* the bug surfaces either through the dedicated mvcc-stale
             probe or through the linearizable check's held reader
             drifting off the pinned snapshot *)
          if
            not
              (has_sub ~sub:"mvcc" m.Diff.detail
              || has_sub ~sub:"drifted" m.Diff.detail)
          then
            Alcotest.failf "caught by %s (%s), not a snapshot check"
              m.Diff.check m.Diff.detail);
  check Alcotest.bool "stack passes again once disarmed" true
    (Diff.check_all p = None)

let suite =
  [
    Alcotest.test_case "pinned reader isolated from updates" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "versions retire with the oldest pin" `Quick
      test_retire_horizon;
    Alcotest.test_case "epoch advances on commit, not on abort" `Quick
      test_epoch_advance_and_abort;
    Alcotest.test_case "subject add/remove is copy-on-write" `Quick
      test_subject_population_cow;
    Alcotest.test_case "journal replay idempotent across torn batch" `Quick
      test_journal_replay_idempotent;
    Alcotest.test_case "group commit amortizes flushes" `Quick
      test_group_commit_batching;
    Alcotest.test_case "group commit under 4 submitting domains" `Quick
      test_group_commit_concurrent;
    Alcotest.test_case "teardown releases domains, pins, fds" `Quick
      test_teardown_on_exception;
    Alcotest.test_case "planted stale snapshot caught by fuzz checks" `Quick
      test_planted_stale_caught;
    Alcotest.test_case "borrowed frame survives rewrite and retire" `Quick
      test_borrowed_frame_survives_retire;
    Alcotest.test_case "reader of a pinned reader keeps its snapshot" `Quick
      test_reader_of_pinned_reader;
    Alcotest.test_case "subject-only update survives append_update" `Quick
      test_subject_only_append;
    Alcotest.test_case "subject-only update survives apply_update" `Quick
      test_subject_only_apply;
    Alcotest.test_case "subject-only update survives group commit" `Quick
      test_subject_only_group_commit;
    Alcotest.test_case "group commit counts committed updates only" `Quick
      test_records_count_committed;
    Alcotest.test_case "a raising update leaves no trace" `Quick
      test_raising_update_leaves_no_trace;
    prop_group_commit_equals_chains;
  ]
