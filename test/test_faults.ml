(** Robustness tests: CRC32C vectors, fault-injecting disk, retrying
    buffer pool, journaled crash recovery of accessibility updates,
    fail-secure quarantine of corrupted label pages, and fuzzing of the
    untrusted deserializers. *)

module Crc = Dolx_util.Crc
module Prng = Dolx_util.Prng
module Varint = Dolx_util.Varint
module Page = Dolx_storage.Page
module Disk = Dolx_storage.Disk
module Buffer_pool = Dolx_storage.Buffer_pool
module Epoch = Dolx_storage.Epoch
module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Persist = Dolx_core.Persist
module Db_file = Dolx_core.Db_file
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

(* --- CRC32C --- *)

let test_crc_vectors () =
  (* the canonical CRC32C check value *)
  check Alcotest.int "123456789" 0xE3069283 (Crc.digest_string "123456789");
  check Alcotest.int "empty" 0 (Crc.digest_string "");
  (* RFC 3720 appendix B.4 test patterns *)
  check Alcotest.int "32 zeros" 0x8A9136AA
    (Crc.digest (Bytes.make 32 '\000'));
  check Alcotest.int "32 ones" 0x62A8AB43 (Crc.digest (Bytes.make 32 '\255'));
  check Alcotest.int "digest = digest_sub over all"
    (Crc.digest_string "hello world")
    (Crc.digest_sub (Bytes.of_string "xxhello worldyy") ~pos:2 ~len:11);
  Alcotest.check_raises "bad slice" (Invalid_argument "Crc.digest_sub")
    (fun () -> ignore (Crc.digest_sub (Bytes.create 4) ~pos:2 ~len:3))

let test_crc_sensitivity () =
  let rng = Prng.create 41 in
  let buf = Bytes.init 256 (fun _ -> Char.chr (Prng.int rng 256)) in
  let base = Crc.digest buf in
  for _ = 1 to 100 do
    let i = Prng.int rng 256 and bit = Prng.int rng 8 in
    let orig = Bytes.get_uint8 buf i in
    Bytes.set_uint8 buf i (orig lxor (1 lsl bit));
    Alcotest.(check bool) "single bit flip changes digest" true
      (Crc.digest buf <> base);
    Bytes.set_uint8 buf i orig
  done;
  check Alcotest.int "restored" base (Crc.digest buf)

(* The byte-at-a-time CRC32C, straight from the definition: the sliced
   kernel must match it bit for bit, or every checksum already on disk
   stops verifying. *)
let reference_crc buf ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Bytes.get_uint8 buf i;
    for _ = 0 to 7 do
      crc := if !crc land 1 <> 0 then 0x82F63B78 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let prop_crc_matches_reference =
  Fixtures.qtest ~count:50 "crc32c sliced = byte-at-a-time reference"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let random n = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256)) in
      let buf = random 64 in
      let ok = ref true in
      (* every alignment and every tail length around the 8-byte step *)
      for pos = 0 to 15 do
        for len = 0 to 40 do
          if Crc.digest_sub buf ~pos ~len <> reference_crc buf ~pos ~len then
            ok := false
        done
      done;
      List.iter
        (fun n ->
          let page = random n in
          if Crc.digest page <> reference_crc page ~pos:0 ~len:n then ok := false)
        [ 512; 1024; 4096 ];
      !ok)

(* data/crc-reference.dolx was written by the byte-at-a-time CRC32C from
   exactly this store plus one journaled update.  It must still load
   with every section, page and journal checksum verified, and today's
   writer must reproduce it byte for byte. *)
let crc_fixture_store () =
  let tree = Dolx_workload.Xmark.generate_nodes ~seed:5 80 in
  let lab =
    Synth_acl.generate_multi tree ~seed:6 ~n_subjects:3 ~n_archetypes:2 ()
  in
  Store.create ~page_size:128 ~pool_capacity:8 tree (Dol.of_labeling lab)

let crc_fixture_update st =
  Dolx_core.Update.set_subtree_accessibility st ~subject:1 ~grant:false 3

(* --- hardened varints --- *)

let test_varint_read_opt () =
  let buf = Bytes.create 16 in
  let e = Varint.write buf 0 300 in
  check
    Alcotest.(option (pair int int))
    "normal" (Some (300, e))
    (Varint.read_opt buf ~pos:0 ~limit:e);
  check Alcotest.(option (pair int int)) "truncated" None
    (Varint.read_opt buf ~pos:0 ~limit:1);
  check Alcotest.(option (pair int int)) "at limit" None
    (Varint.read_opt buf ~pos:e ~limit:e);
  (* unterminated continuation chain must not read out of bounds *)
  let evil = Bytes.make 16 '\xFF' in
  check Alcotest.(option (pair int int)) "unterminated" None
    (Varint.read_opt evil ~pos:0 ~limit:16);
  (* a 10-byte varint encoding > 62 bits must be rejected, not wrap *)
  let big = Bytes.of_string "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F" in
  check Alcotest.(option (pair int int)) "overflow" None
    (Varint.read_opt big ~pos:0 ~limit:(Bytes.length big))

(* --- disk fault injection --- *)

let test_disk_transient_read () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.set_fault_plan d
    (Some (Disk.fault_plan ~transient_read_p:1.0 (Prng.create 1)));
  Alcotest.check_raises "transient fault"
    (Disk.Fault { page = pid; kind = Disk.Transient_read })
    (fun () -> ignore (Disk.read d pid));
  check Alcotest.int "counted" 1 (Disk.stats d).Disk.transient_faults;
  Disk.set_fault_plan d None;
  ignore (Disk.read d pid)

let test_disk_torn_write_detected () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.set_fault_plan d
    (Some (Disk.fault_plan ~torn_write_p:1.0 (Prng.create 7)));
  Disk.write d pid (Bytes.make 64 '\xAB');
  check Alcotest.int "torn counted" 1 (Disk.stats d).Disk.torn_writes;
  Alcotest.check_raises "torn write caught on read"
    (Disk.Fault { page = pid; kind = Disk.Checksum_mismatch })
    (fun () -> ignore (Disk.read d pid));
  check Alcotest.int "mismatch counted" 1
    (Disk.stats d).Disk.checksum_failures

let test_disk_bit_flip_detected () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.set_fault_plan d (Some (Disk.fault_plan ~bit_flip_p:1.0 (Prng.create 3)));
  Disk.write d pid (Bytes.make 64 'x');
  check Alcotest.int "flip counted" 1 (Disk.stats d).Disk.bit_flips;
  Alcotest.check_raises "bit rot caught on read"
    (Disk.Fault { page = pid; kind = Disk.Checksum_mismatch })
    (fun () -> ignore (Disk.read d pid));
  (* with verification off the corrupt bytes come back silently — the
     A/B configuration used to measure checksum overhead *)
  Disk.set_verify_reads d false;
  let buf = Disk.read d pid in
  Alcotest.(check bool) "verify off reads corrupt bytes" true
    (Bytes.exists (fun c -> c <> 'x') buf)

let test_disk_bad_page () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.mark_bad d pid;
  Alcotest.(check bool) "is_bad" true (Disk.is_bad d pid);
  Alcotest.check_raises "read bad"
    (Disk.Fault { page = pid; kind = Disk.Bad_page })
    (fun () -> ignore (Disk.read d pid));
  Alcotest.check_raises "write bad"
    (Disk.Fault { page = pid; kind = Disk.Bad_page })
    (fun () -> Disk.write d pid (Page.create 64))

let test_disk_bounds_messages () =
  let d = Disk.create ~page_size:64 () in
  ignore (Disk.allocate d);
  Alcotest.check_raises "read"
    (Invalid_argument "Disk.read: page 5 out of range (page count 1)")
    (fun () -> ignore (Disk.read d 5));
  Alcotest.check_raises "write"
    (Invalid_argument "Disk.write: page -1 out of range (page count 1)")
    (fun () -> Disk.write d (-1) (Page.create 64));
  Alcotest.check_raises "mark_bad"
    (Invalid_argument "Disk.mark_bad: page 9 out of range (page count 1)")
    (fun () -> Disk.mark_bad d 9)

let test_disk_crc_accounting () =
  let d = Disk.create ~page_size:64 ~crc_cost_us:2.0 () in
  let pid = Disk.allocate d in
  Disk.write d pid (Bytes.make 64 'a');
  Disk.reset_stats d;
  for _ = 1 to 10 do
    ignore (Disk.read d pid)
  done;
  check (Alcotest.float 1e-9) "crc time charged" 20.0 (Disk.crc_us d);
  Alcotest.(check bool) "crc time inside simulated time" true
    (Disk.crc_us d < Disk.simulated_us d);
  Disk.set_verify_reads d false;
  Disk.reset_stats d;
  ignore (Disk.read d pid);
  check (Alcotest.float 1e-9) "no crc time when off" 0.0 (Disk.crc_us d)

(* --- verified-once images --- *)

(* A clean page, read through a cold pool of the given kind so its image
   is verified; then rewritten under [plan], so the installed image is
   corrupt.  A cold pool of the same kind (pinned after the rewrite is
   published, for the borrowing path) must refuse the new image. *)
let check_rewrite_caught ~pinned plan =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.write d pid (Bytes.make 64 'a');
  let pool () =
    let epoch = if pinned then Some (Epoch.pin (Disk.epoch d)) else None in
    Buffer_pool.create ?epoch d
  in
  check Alcotest.char "clean read" 'a' (Bytes.get (Buffer_pool.get (pool ()) pid) 0);
  check Alcotest.char "verified image served again" 'a'
    (Bytes.get (Buffer_pool.get (pool ()) pid) 0);
  Disk.set_fault_plan d (Some (plan (Prng.create 17)));
  Disk.write d pid (Bytes.make 64 'b');
  Disk.set_fault_plan d None;
  ignore (Epoch.advance (Disk.epoch d));
  Alcotest.check_raises "corrupt rewrite caught"
    (Disk.Fault { page = pid; kind = Disk.Checksum_mismatch })
    (fun () -> ignore (Buffer_pool.get (pool ()) pid))

let test_verified_rewrite_rechecked () =
  List.iter
    (fun pinned ->
      check_rewrite_caught ~pinned (Disk.fault_plan ~bit_flip_p:1.0);
      check_rewrite_caught ~pinned (Disk.fault_plan ~torn_write_p:1.0))
    [ true; false ]

(* A read that faults — transient or checksum — never marks the image
   verified: every later read still checks it, and still fails. *)
let test_faulted_read_never_verifies () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.set_fault_plan d (Some (Disk.fault_plan ~bit_flip_p:1.0 (Prng.create 3)));
  Disk.write d pid (Bytes.make 64 'x');
  Disk.set_fault_plan d
    (Some (Disk.fault_plan ~transient_read_p:1.0 (Prng.create 4)));
  Alcotest.check_raises "transient first"
    (Disk.Fault { page = pid; kind = Disk.Transient_read })
    (fun () -> ignore (Disk.read d pid));
  Disk.set_fault_plan d None;
  for i = 1 to 3 do
    Alcotest.check_raises
      (Printf.sprintf "mismatch on read %d" i)
      (Disk.Fault { page = pid; kind = Disk.Checksum_mismatch })
      (fun () -> ignore (Disk.read d pid))
  done;
  check Alcotest.int "every read verified" 3
    (Disk.stats d).Disk.checksum_failures

(* --- buffer pool fault handling --- *)

let test_pool_retry_exhaustion () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  Disk.set_fault_plan d
    (Some (Disk.fault_plan ~transient_read_p:1.0 (Prng.create 5)));
  let pool = Buffer_pool.create ~capacity:4 ~max_read_retries:3 d in
  Alcotest.check_raises "still failing after retries"
    (Disk.Fault { page = pid; kind = Disk.Transient_read })
    (fun () -> ignore (Buffer_pool.get pool pid));
  check Alcotest.int "3 retries spent" 3 (Buffer_pool.stats pool).Buffer_pool.retries;
  Alcotest.(check bool) "page not resident after failure" false
    (Buffer_pool.resident pool pid);
  (* faults cleared: the same get now succeeds and caches *)
  Disk.set_fault_plan d None;
  ignore (Buffer_pool.get pool pid);
  Alcotest.(check bool) "resident after success" true
    (Buffer_pool.resident pool pid)

let test_pool_retry_recovers () =
  let d = Disk.create ~page_size:64 () in
  let a = Disk.allocate d in
  let b = Disk.allocate d in
  Disk.write d a (Bytes.make 64 'a');
  Disk.write d b (Bytes.make 64 'b');
  Disk.set_fault_plan d
    (Some (Disk.fault_plan ~transient_read_p:0.5 (Prng.create 11)));
  (* capacity 1 forces a disk read on every alternation *)
  let pool = Buffer_pool.create ~capacity:1 ~max_read_retries:8 d in
  for i = 0 to 99 do
    let pid, c = if i land 1 = 0 then (a, 'a') else (b, 'b') in
    let frame = Buffer_pool.get pool pid in
    check Alcotest.char (Printf.sprintf "content %d" i) c (Bytes.get frame 0)
  done;
  Alcotest.(check bool) "some retries happened" true
    ((Buffer_pool.stats pool).Buffer_pool.retries > 0)

let test_pool_flush_failures_collected () =
  let d = Disk.create ~page_size:64 () in
  let pids = Array.init 3 (fun _ -> Disk.allocate d) in
  let pool = Buffer_pool.create ~capacity:4 d in
  Array.iteri
    (fun i pid ->
      let frame = Buffer_pool.get pool pid in
      Bytes.set_uint8 frame 0 (100 + i);
      Buffer_pool.mark_dirty pool pid)
    pids;
  Disk.mark_bad d pids.(1);
  (match Buffer_pool.flush_all pool with
  | () -> Alcotest.fail "expected Flush_failed"
  | exception Buffer_pool.Flush_failed failures -> (
      match failures with
      | [ (pid, Disk.Fault { kind = Disk.Bad_page; _ }) ] ->
          check Alcotest.int "failed page reported" pids.(1) pid
      | _ -> Alcotest.fail "wrong failure list"));
  (* the other dirty frames must have been written despite the failure *)
  check Alcotest.int "page 0 flushed" 100
    (Bytes.get_uint8 (Disk.read d pids.(0)) 0);
  check Alcotest.int "page 2 flushed" 102
    (Bytes.get_uint8 (Disk.read d pids.(2)) 0)

(* Regression: evict_one used to unregister the victim *before* flushing
   it, so a faulting flush orphaned the frame — the dirty page was
   silently lost and a later get re-read the stale on-disk copy.  The
   fixed order keeps the victim resident (and dirty) when its flush
   faults, so the modification survives until the fault is repaired. *)
let test_eviction_flush_failure_keeps_dirty_page () =
  let d = Disk.create ~page_size:64 () in
  let p0 = Disk.allocate d in
  let p1 = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:1 d in
  let frame = Buffer_pool.get pool p0 in
  Bytes.set_uint8 frame 0 77;
  Buffer_pool.mark_dirty pool p0;
  Disk.mark_bad d p0;
  (* caching p1 requires evicting p0, whose dirty flush faults *)
  (match Buffer_pool.get pool p1 with
  | _ -> Alcotest.fail "expected eviction flush fault"
  | exception Disk.Fault { page; kind = Disk.Bad_page } ->
      check Alcotest.int "fault names the victim" p0 page);
  check Alcotest.int "failure counted" 1
    (Buffer_pool.stats pool).Buffer_pool.eviction_flush_failures;
  check Alcotest.int "no eviction counted" 0
    (Buffer_pool.stats pool).Buffer_pool.evictions;
  Alcotest.(check bool) "victim still resident" true
    (Buffer_pool.resident pool p0);
  (* the modified bytes are still served from the pool, not lost *)
  check Alcotest.int "modified byte preserved" 77
    (Bytes.get_uint8 (Buffer_pool.get pool p0) 0);
  (* sector remapped: the retained dirty page becomes durable *)
  Disk.clear_bad d p0;
  Buffer_pool.flush_all pool;
  let buf = Disk.read d p0 in
  check Alcotest.int "dirty page durable after repair" 77 (Bytes.get_uint8 buf 0);
  (* and eviction proceeds normally again *)
  ignore (Buffer_pool.get pool p1);
  check Alcotest.int "eviction counted" 1
    (Buffer_pool.stats pool).Buffer_pool.evictions;
  Alcotest.(check bool) "p1 resident" true (Buffer_pool.resident pool p1);
  Alcotest.(check bool) "p0 evicted" false (Buffer_pool.resident pool p0)

(* --- fixtures for store-level tests --- *)

let make_store ?(page_size = 128) ?(n_subjects = 3) ~seed n =
  let rng = Prng.create seed in
  let tree = Fixtures.random_tree rng (max 2 n) in
  let lab =
    Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects ~n_archetypes:2 ()
  in
  let dol = Dol.of_labeling lab in
  (tree, dol, Store.create ~page_size ~pool_capacity:8 tree dol)

(* The full access matrix: every (subject, node) verdict. *)
let matrix store =
  let n = Tree.size (Store.tree store) in
  let w = Codebook.width (Store.codebook store) in
  Array.init w (fun s -> Array.init n (fun v -> Store.accessible store ~subject:s v))

let test_crc_reference_fixture () =
  let img =
    In_channel.with_open_bin "data/crc-reference.dolx" In_channel.input_all
    |> Bytes.of_string
  in
  let clean = Db_file.to_bytes (crc_fixture_store ()) in
  let rewritten = Db_file.append_update ~image:clean crc_fixture_update in
  Alcotest.(check bool) "fixture carries a journal record" true
    (Bytes.length img > Bytes.length clean);
  Alcotest.(check bool) "writer reproduces the fixture" true
    (Bytes.equal rewritten img);
  (* `Fail: any checksum mismatch raises; a journal record whose CRC
     failed would be dropped as torn, so the matrix check proves it
     verified and rolled forward *)
  let loaded, _ = Db_file.of_bytes img in
  let post = crc_fixture_store () in
  crc_fixture_update post;
  Alcotest.(check (array (array bool))) "post-update matrix" (matrix post)
    (matrix loaded)

(* --- journaled crash recovery --- *)

(* The acceptance property: for every durable image a crash during a
   journaled update can leave behind, reloading yields exactly the
   pre-update or exactly the post-update access matrix — never a hybrid,
   never anything more permissive. *)
let crash_recovery_iteration seed =
  let rng = Prng.create (seed * 7919) in
  let n = 10 + Prng.int rng 40 in
  let _, _, store = make_store ~seed n in
  let n = Tree.size (Store.tree store) in
  let base = Db_file.to_bytes store in
  let subject = Prng.int rng 3 in
  let grant = Prng.bool rng ~p:0.5 in
  let v = Prng.int rng n in
  let subtree = Prng.bool rng ~p:0.4 in
  let update st =
    if subtree then Update.set_subtree_accessibility st ~subject ~grant v
    else ignore (Update.set_node_accessibility st ~subject ~grant v)
  in
  let pre =
    let st, _ = Db_file.of_bytes base in
    matrix st
  in
  let post =
    let st, _ = Db_file.of_bytes base in
    update st;
    matrix st
  in
  let images = Db_file.update_images ~torn:(Prng.split rng) ~base update in
  let n_images = List.length images in
  List.iteri
    (fun i img ->
      let st, _ = Db_file.of_bytes img in
      let m = matrix st in
      if not (m = pre || m = post) then
        Alcotest.failf "seed %d image %d/%d: hybrid state recovered" seed i
          n_images;
      if i = 0 && m <> pre then
        Alcotest.failf "seed %d: base image not pre-state" seed;
      if i = n_images - 1 && m <> post then
        Alcotest.failf "seed %d: committed image not post-state" seed)
    images

let test_crash_recovery_500 () =
  for seed = 1 to 500 do
    crash_recovery_iteration seed
  done

let test_update_images_no_change () =
  let _, _, store = make_store ~seed:97 30 in
  let base = Db_file.to_bytes store in
  check Alcotest.int "no-op update journals nothing" 1
    (List.length (Db_file.update_images ~base (fun _ -> ())))

let test_durable_update_api () =
  let _, _, store = make_store ~seed:131 40 in
  let v = 7 in
  let base = Db_file.to_bytes store in
  let pre_granted =
    let st, _ = Db_file.of_bytes base in
    Store.accessible st ~subject:0 v
  in
  let base' =
    Update.durable_node_update ~base ~subject:0 ~grant:(not pre_granted) v
  in
  let st, _ = Db_file.of_bytes base' in
  Alcotest.(check bool) "flipped" (not pre_granted)
    (Store.accessible st ~subject:0 v);
  Alcotest.(check bool) "result is a clean image" true
    (Bytes.get_uint8 base' (Bytes.length base' - 1) = 0);
  let base'' =
    Update.durable_subtree_update ~base:base' ~subject:1 ~grant:false 0
  in
  let st, _ = Db_file.of_bytes base'' in
  let n = Tree.size (Store.tree st) in
  for u = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "subtree denied %d" u)
      false
      (Store.accessible st ~subject:1 u)
  done

(* --- fail-secure quarantine --- *)

let corrupt_page img lp =
  let off, _len = Db_file.page_extent img lp in
  let bad = Bytes.copy img in
  Bytes.set_uint8 bad (off + 17) (Bytes.get_uint8 bad (off + 17) lxor 0xFF);
  bad

let test_corrupt_page_fails_closed () =
  let _, _, store = make_store ~seed:23 80 in
  let img = Db_file.to_bytes store in
  let layout = Store.layout store in
  let n_pages = Dolx_storage.Nok_layout.page_count layout in
  Alcotest.(check bool) "multi-page fixture" true (n_pages >= 3);
  let lp = n_pages / 2 in
  let bad = corrupt_page img lp in
  (* default policy: refuse to load, naming the page *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Db_file.of_bytes bad with
  | exception Db_file.Corrupt m ->
      Alcotest.(check bool)
        (Printf.sprintf "error names page (%s)" m)
        true
        (contains m (string_of_int lp))
  | _ -> Alcotest.fail "expected Corrupt");
  (* deny-subtree policy: load, deny the lost range, preserve the rest *)
  let st, _ = Db_file.of_bytes ~on_bad_page:`Deny_subtree bad in
  let ranges = Store.quarantined st in
  Alcotest.(check bool) "a range is quarantined" true (ranges <> []);
  let in_q v = List.exists (fun (lo, hi) -> v >= lo && v <= hi) ranges in
  let n = Tree.size (Store.tree store) in
  check Alcotest.int "node count preserved" n (Tree.size (Store.tree st));
  let w = Codebook.width (Store.codebook store) in
  for v = 0 to n - 1 do
    for s = 0 to w - 1 do
      let original = Store.accessible store ~subject:s v in
      let recovered = Store.accessible st ~subject:s v in
      if in_q v then
        Alcotest.(check bool)
          (Printf.sprintf "quarantined %d denied for %d" v s)
          false recovered
      else
        Alcotest.(check bool)
          (Printf.sprintf "intact %d unchanged for %d" v s)
          original recovered
    done
  done

let test_all_pages_corrupt_denies_all () =
  let _, _, store = make_store ~seed:29 40 in
  let img = Db_file.to_bytes store in
  let n_pages =
    Dolx_storage.Nok_layout.page_count (Store.layout store)
  in
  let bad = ref img in
  for lp = 0 to n_pages - 1 do
    bad := corrupt_page !bad lp
  done;
  let st, _ = Db_file.of_bytes ~on_bad_page:`Deny_subtree !bad in
  let n = Tree.size (Store.tree st) in
  check Alcotest.(list (pair int int)) "everything quarantined"
    [ (0, n - 1) ]
    (Store.quarantined st);
  for v = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "denied %d" v) false
      (Store.accessible st ~subject:0 v)
  done

let prop_quarantine_never_grants =
  Fixtures.qtest ~count:60 "quarantine recovery never grants new access"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 10 120))
    (fun (seed, n) ->
      let _, _, store = make_store ~seed:(seed + 1) n in
      let img = Db_file.to_bytes store in
      let n_pages =
        Dolx_storage.Nok_layout.page_count (Store.layout store)
      in
      let rng = Prng.create seed in
      let bad = corrupt_page img (Prng.int rng n_pages) in
      let st, _ = Db_file.of_bytes ~on_bad_page:`Deny_subtree bad in
      let n = Tree.size (Store.tree store) in
      let w = Codebook.width (Store.codebook store) in
      let ok = ref true in
      for v = 0 to n - 1 do
        for s = 0 to w - 1 do
          if
            Store.accessible st ~subject:s v
            && not (Store.accessible store ~subject:s v)
          then ok := false
        done
      done;
      !ok)

(* --- fuzzing the untrusted deserializers --- *)

let expect_persist_total what buf =
  match Persist.of_bytes buf with
  | (_ : Dol.t) -> ()
  | exception Persist.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: escaped with %s" what (Printexc.to_string e)

let test_persist_fuzz () =
  let _, dol, _ = make_store ~seed:43 60 in
  let good = Persist.to_bytes dol in
  let len = Bytes.length good in
  (* every truncated prefix *)
  for k = 0 to len - 1 do
    (match Persist.of_bytes (Bytes.sub good 0 k) with
    | (_ : Dol.t) -> Alcotest.failf "truncation to %d bytes accepted" k
    | exception Persist.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "truncation to %d: escaped with %s" k
          (Printexc.to_string e));
    expect_persist_total (Printf.sprintf "trunc %d" k) (Bytes.sub good 0 k)
  done;
  (* random single-byte mutations *)
  let rng = Prng.create 44 in
  for i = 1 to 300 do
    let buf = Bytes.copy good in
    let pos = Prng.int rng len in
    Bytes.set_uint8 buf pos (Prng.int rng 256);
    expect_persist_total (Printf.sprintf "mutation %d at %d" i pos) buf
  done

let expect_db_total what buf =
  match Db_file.of_bytes buf with
  | _ -> ()
  | exception Db_file.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: escaped with %s" what (Printexc.to_string e)

let test_db_file_fuzz () =
  let _, _, store = make_store ~seed:47 25 in
  let good = Db_file.to_bytes store in
  let len = Bytes.length good in
  for k = 0 to len - 1 do
    expect_db_total (Printf.sprintf "trunc %d" k) (Bytes.sub good 0 k)
  done;
  let rng = Prng.create 48 in
  for i = 1 to 300 do
    let buf = Bytes.copy good in
    let pos = Prng.int rng len in
    Bytes.set_uint8 buf pos (Prng.int rng 256);
    expect_db_total (Printf.sprintf "mutation %d at %d" i pos) buf
  done;
  (* mutations under the lenient policy must also stay total *)
  for i = 1 to 150 do
    let buf = Bytes.copy good in
    let pos = Prng.int rng len in
    Bytes.set_uint8 buf pos (Prng.int rng 256);
    match Db_file.of_bytes ~on_bad_page:`Deny_subtree buf with
    | _ -> ()
    | exception Db_file.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "deny mutation %d at %d: escaped with %s" i pos
          (Printexc.to_string e)
  done

let test_db_file_journal_fuzz () =
  (* mutate crash images (which carry journals) — loading stays total *)
  let rng = Prng.create 53 in
  let _, _, store = make_store ~seed:51 30 in
  let base = Db_file.to_bytes store in
  let images =
    Db_file.update_images ~torn:(Prng.split rng) ~base (fun st ->
        Update.set_subtree_accessibility st ~subject:0 ~grant:false 0)
  in
  List.iter
    (fun img ->
      let len = Bytes.length img in
      for i = 1 to 100 do
        let buf = Bytes.copy img in
        let pos = Prng.int rng len in
        Bytes.set_uint8 buf pos (Prng.int rng 256);
        expect_db_total (Printf.sprintf "journal mutation %d at %d" i pos) buf
      done)
    images

let suite =
  [
    Alcotest.test_case "crc32c vectors" `Quick test_crc_vectors;
    Alcotest.test_case "crc32c sensitivity" `Quick test_crc_sensitivity;
    prop_crc_matches_reference;
    Alcotest.test_case "crc32c reference-written db file verifies" `Quick
      test_crc_reference_fixture;
    Alcotest.test_case "varint read_opt" `Quick test_varint_read_opt;
    Alcotest.test_case "disk: transient read fault" `Quick test_disk_transient_read;
    Alcotest.test_case "disk: torn write detected" `Quick test_disk_torn_write_detected;
    Alcotest.test_case "disk: bit flip detected" `Quick test_disk_bit_flip_detected;
    Alcotest.test_case "disk: bad page" `Quick test_disk_bad_page;
    Alcotest.test_case "disk: bounds messages" `Quick test_disk_bounds_messages;
    Alcotest.test_case "disk: crc accounting" `Quick test_disk_crc_accounting;
    Alcotest.test_case "disk: verified image rewritten corrupt is caught" `Quick
      test_verified_rewrite_rechecked;
    Alcotest.test_case "disk: faulted read never verifies" `Quick
      test_faulted_read_never_verifies;
    Alcotest.test_case "pool: retry exhaustion" `Quick test_pool_retry_exhaustion;
    Alcotest.test_case "pool: retry recovers" `Quick test_pool_retry_recovers;
    Alcotest.test_case "pool: flush failures collected" `Quick
      test_pool_flush_failures_collected;
    Alcotest.test_case "pool: eviction flush failure keeps dirty page" `Quick
      test_eviction_flush_failure_keeps_dirty_page;
    Alcotest.test_case "crash recovery (500 seeds)" `Quick test_crash_recovery_500;
    Alcotest.test_case "update_images: no change" `Quick test_update_images_no_change;
    Alcotest.test_case "durable update API" `Quick test_durable_update_api;
    Alcotest.test_case "corrupt page fails closed" `Quick test_corrupt_page_fails_closed;
    Alcotest.test_case "all pages corrupt denies all" `Quick
      test_all_pages_corrupt_denies_all;
    prop_quarantine_never_grants;
    Alcotest.test_case "persist fuzz" `Quick test_persist_fuzz;
    Alcotest.test_case "db file fuzz" `Quick test_db_file_fuzz;
    Alcotest.test_case "db file journal fuzz" `Quick test_db_file_journal_fuzz;
  ]
