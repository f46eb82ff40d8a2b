(** Tests for [Dolx_storage]: pages, the simulated disk, the buffer pool,
    and the NoK page layout with embedded DOL codes. *)

module Page = Dolx_storage.Page
module Disk = Dolx_storage.Disk
module Buffer_pool = Dolx_storage.Buffer_pool
module Epoch = Dolx_storage.Epoch
module Nok_layout = Dolx_storage.Nok_layout
module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Prng = Dolx_util.Prng

let check = Alcotest.check

let test_page_fields () =
  let p = Page.create 64 in
  Page.set_u8 p 0 200;
  Page.set_u16 p 1 40_000;
  Page.set_u32 p 3 3_000_000_000;
  check Alcotest.int "u8" 200 (Page.get_u8 p 0);
  check Alcotest.int "u16" 40_000 (Page.get_u16 p 1);
  check Alcotest.int "u32" 3_000_000_000 (Page.get_u32 p 3)

let test_disk_counters () =
  let d = Disk.create ~page_size:128 () in
  let a = Disk.allocate d in
  let b = Disk.allocate d in
  check Alcotest.int "ids dense" 1 b;
  let buf = Page.create 128 in
  Bytes.set_uint8 buf 0 7;
  Disk.write d a buf;
  let buf2 = Disk.read d a in
  check Alcotest.int "roundtrip" 7 (Bytes.get_uint8 buf2 0);
  let s = Disk.stats d in
  check Alcotest.int "reads" 1 s.Disk.reads;
  check Alcotest.int "writes" 1 s.Disk.writes;
  check Alcotest.int "allocations" 2 s.Disk.allocations;
  Alcotest.(check bool) "simulated time advanced" true (Disk.simulated_us d > 0.0)

let test_pool_hits_and_eviction () =
  let d = Disk.create ~page_size:64 () in
  let pages = Array.init 4 (fun _ -> Disk.allocate d) in
  Array.iteri
    (fun i pid ->
      let b = Page.create 64 in
      Bytes.set_uint8 b 0 i;
      Disk.write d pid b)
    pages;
  Disk.reset_stats d;
  let pool = Buffer_pool.create ~capacity:2 d in
  ignore (Buffer_pool.get pool pages.(0));
  ignore (Buffer_pool.get pool pages.(0));
  ignore (Buffer_pool.get pool pages.(1));
  let s = Buffer_pool.stats pool in
  check Alcotest.int "touches" 3 s.Buffer_pool.touches;
  check Alcotest.int "hits" 1 s.Buffer_pool.hits;
  check Alcotest.int "misses" 2 s.Buffer_pool.misses;
  (* force eviction of page 0 (LRU) *)
  ignore (Buffer_pool.get pool pages.(2));
  Alcotest.(check bool) "page0 evicted" false (Buffer_pool.resident pool pages.(0));
  Alcotest.(check bool) "page1 resident" true (Buffer_pool.resident pool pages.(1));
  (* contents still correct after refetch *)
  let b = Buffer_pool.get pool pages.(0) in
  check Alcotest.int "contents" 0 (Bytes.get_uint8 b 0)

let test_pool_writeback () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:1 d in
  let frame = Buffer_pool.get pool pid in
  Bytes.set_uint8 frame 5 42;
  Buffer_pool.mark_dirty pool pid;
  Buffer_pool.flush_all pool;
  let buf = Disk.read d pid in
  check Alcotest.int "dirty page written back" 42 (Bytes.get_uint8 buf 5)

(* Regression for the evict-then-mark race: a frame modified after its
   get must be marked dirty before any other get can evict it.  The pool
   cannot detect a lost update after the fact, so mark_dirty on a
   no-longer-resident page must raise instead of no-op'ing. *)
let test_pool_mark_dirty_after_evict () =
  let d = Disk.create ~page_size:64 () in
  let a = Disk.allocate d in
  let b = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:1 d in
  let frame = Buffer_pool.get pool a in
  Bytes.set_uint8 frame 0 42;
  (* page b evicts page a; a's unmarked modification is dropped *)
  ignore (Buffer_pool.get pool b);
  Alcotest.check_raises "late mark_dirty raises"
    (Invalid_argument
       "Buffer_pool.mark_dirty: page 0 not resident (mark_dirty must follow \
        the get that produced the frame, before any other get that could \
        evict it)")
    (fun () -> Buffer_pool.mark_dirty pool a);
  (* the correct ordering survives the same eviction pressure *)
  let frame = Buffer_pool.get pool a in
  Bytes.set_uint8 frame 0 42;
  Buffer_pool.mark_dirty pool a;
  ignore (Buffer_pool.get pool b);
  let buf = Disk.read d a in
  check Alcotest.int "marked modification survives eviction" 42
    (Bytes.get_uint8 buf 0)

(* Replay [gets] on [pool] and on a reference LRU — a list of resident
   pages, most recently used first — and check after every step that
   they agree on every hit, miss and eviction and on the resident set,
   and that [frame_ok] holds for the bytes served.  A get of index
   [Array.length pages] or more is a [clear]. *)
let agrees_with_reference_lru pool ~capacity pages ?(frame_ok = fun _ _ -> true)
    gets =
  let lru = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  List.for_all
    (fun i ->
      let served =
        if i >= Array.length pages then begin
          Buffer_pool.clear pool;
          lru := [];
          true
        end
        else begin
          let pid = pages.(i) in
          if List.mem pid !lru then begin
            incr hits;
            lru := pid :: List.filter (( <> ) pid) !lru
          end
          else begin
            incr misses;
            if List.length !lru = capacity then begin
              incr evictions;
              lru := List.filteri (fun j _ -> j < capacity - 1) !lru
            end;
            lru := pid :: !lru
          end;
          frame_ok i (Buffer_pool.get pool pid)
        end
      in
      let s = Buffer_pool.stats pool in
      served
      && s.Buffer_pool.hits = !hits
      && s.Buffer_pool.misses = !misses
      && s.Buffer_pool.evictions = !evictions
      && Array.for_all
           (fun p -> Buffer_pool.resident pool p = List.mem p !lru)
           pages)
    gets

(* Random get sequences over 12 pages at capacities 1–8, on a live
   (copying) or an epoch-pinned (borrowing) pool, against the
   reference LRU, bytes served included. *)
let prop_pool_matches_reference_lru =
  Fixtures.qtest ~count:300 "pool LRU = reference list-LRU (random gets)"
    QCheck2.Gen.(
      triple (int_range 1 8) bool (list_size (int_bound 200) (int_bound 11)))
    (fun (capacity, pinned, gets) ->
      let d = Disk.create ~page_size:64 () in
      let pages =
        Array.init 12 (fun i ->
            let pid = Disk.allocate d in
            Disk.write d pid (Bytes.make 64 (Char.chr (65 + i)));
            pid)
      in
      let epoch = if pinned then Some (Epoch.pin (Disk.epoch d)) else None in
      let pool = Buffer_pool.create ~capacity ?epoch d in
      agrees_with_reference_lru pool ~capacity pages
        ~frame_ok:(fun i frame -> Bytes.get frame 0 = Char.chr (65 + i))
        gets)

let test_pinned_pool_mark_dirty_raises () =
  let d = Disk.create ~page_size:64 () in
  let pid = Disk.allocate d in
  let pool = Buffer_pool.create ~epoch:(Epoch.pin (Disk.epoch d)) d in
  ignore (Buffer_pool.get pool pid);
  Alcotest.check_raises "pinned pools are read-only"
    (Invalid_argument "Buffer_pool.mark_dirty: pinned pools are read-only")
    (fun () -> Buffer_pool.mark_dirty pool pid)

(* --- NoK layout --- *)

let build_layout ?(page_size = 128) ?(fill = 0.9) tree bools =
  let dol = Dol.of_bool_array bools in
  let disk = Disk.create ~page_size () in
  let layout =
    Nok_layout.build ~fill disk tree ~trans_pre:dol.Dol.trans_pre
      ~trans_code:dol.Dol.trans_code
  in
  let pool = Buffer_pool.create ~capacity:16 disk in
  (layout, pool, dol)

let test_layout_transition_arrays_differ () =
  let tree = Fixtures.figure2_tree () in
  Alcotest.check_raises "parallel arrays of one length"
    (Invalid_argument "Nok_layout.build: transition arrays differ in length") (fun () ->
      ignore
        (Nok_layout.build (Disk.create ~page_size:128 ()) tree ~trans_pre:[| 0 |]
           ~trans_code:[| 0; 1 |]))

let test_layout_roundtrip_figure2 () =
  let tree = Fixtures.figure2_tree () in
  let bools = [| false; true; true; true; false; false; false; true; true; true; true; true |] in
  let layout, pool, _ = build_layout ~page_size:64 ~fill:0.5 tree bools in
  Alcotest.(check bool) "multiple pages" true (Nok_layout.page_count layout > 1);
  let t2 = Nok_layout.decode_tree layout pool ~tag_table:(Tree.tag_table tree) in
  check Alcotest.string "structure preserved" (Tree.structure_string tree)
    (Tree.structure_string t2)

let test_layout_codes () =
  let tree = Fixtures.figure2_tree () in
  let bools = [| false; true; true; true; false; false; false; true; true; true; true; true |] in
  let layout, pool, dol = build_layout ~page_size:64 ~fill:0.5 tree bools in
  let codes = Nok_layout.codes_of_all_nodes layout pool in
  Array.iteri
    (fun v code ->
      check Alcotest.int (Printf.sprintf "code at %d" v) (Dol.code_at dol v) code)
    codes;
  (* code_in_force agrees node by node *)
  for v = 0 to Tree.size tree - 1 do
    check Alcotest.int
      (Printf.sprintf "in force at %d" v)
      (Dol.code_at dol v)
      (Nok_layout.code_in_force layout pool v)
  done

let test_layout_headers () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 false in
  let layout, _pool, _ = build_layout ~page_size:64 ~fill:0.5 tree bools in
  (* uniform document: no page can have a change bit *)
  for lp = 0 to Nok_layout.page_count layout - 1 do
    let h = Nok_layout.header layout lp in
    Alcotest.(check bool) "no change bit" false h.Nok_layout.change
  done

let test_page_of_matches_first_pres () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 true in
  let layout, _pool, _ = build_layout ~page_size:64 ~fill:0.5 tree bools in
  for v = 0 to 11 do
    let lp = Nok_layout.page_of layout v in
    let h = Nok_layout.header layout lp in
    Alcotest.(check bool) "first_pre <= v" true (h.Nok_layout.first_pre <= v);
    if lp + 1 < Nok_layout.page_count layout then begin
      let h' = Nok_layout.header layout (lp + 1) in
      Alcotest.(check bool) "v < next first_pre" true (v < h'.Nok_layout.first_pre)
    end
  done

let prop_layout_roundtrip_random =
  Fixtures.qtest ~count:60 "layout decode = original tree + codes (random)"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 400) (int_range 3 9))
    (fun (seed, n, psize_log) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n 0.5 in
      let page_size = 1 lsl (psize_log + 3) in
      let layout, pool, dol = build_layout ~page_size tree bools in
      let t2 = Nok_layout.decode_tree layout pool ~tag_table:(Tree.tag_table tree) in
      let codes = Nok_layout.codes_of_all_nodes layout pool in
      Tree.structure_string tree = Tree.structure_string t2
      && Array.for_all Fun.id (Array.mapi (fun v c -> c = Dol.code_at dol v) codes))

let test_rewrite_page_in_place () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 false in
  let layout, pool, dol = build_layout ~page_size:4096 tree bools in
  check Alcotest.int "single page" 1 (Nok_layout.page_count layout);
  (* flip node 5 by adding inline codes: simulate with a logical update *)
  ignore (Dolx_core.Update.dol_set_node dol ~subject:0 ~grant:true 5);
  let rs = Nok_layout.records layout pool 0 in
  let rs' =
    List.map
      (fun (r : Nok_layout.record) ->
        let code =
          if r.Nok_layout.pre <> 0 && Dol.is_transition dol r.Nok_layout.pre then
            Some (Dol.code_at dol r.Nok_layout.pre)
          else None
        in
        { r with Nok_layout.code })
      rs
  in
  Nok_layout.rewrite_page layout pool 0 rs' ~code_before:(Dol.code_at dol);
  let codes = Nok_layout.codes_of_all_nodes layout pool in
  for v = 0 to 11 do
    check Alcotest.int (Printf.sprintf "code %d" v) (Dol.code_at dol v) codes.(v)
  done;
  let h = Nok_layout.header layout 0 in
  Alcotest.(check bool) "change bit now set" true h.Nok_layout.change

let test_rewrite_page_split () =
  (* Fill a small page to the brim (fill=1.0), then force growth by
     adding transition codes to every node: the page must split and
     decoding must still agree. *)
  let rng = Prng.create 5 in
  let tree = Fixtures.random_tree rng 40 in
  let bools = Array.make 40 false in
  let dol = Dol.of_bool_array bools in
  let disk = Disk.create ~page_size:80 () in
  let layout =
    Nok_layout.build ~fill:1.0 disk tree ~trans_pre:dol.Dol.trans_pre
      ~trans_code:dol.Dol.trans_code
  in
  let pool = Buffer_pool.create ~capacity:16 disk in
  let pages_before = Nok_layout.page_count layout in
  (* alternate accessibility to force a transition on every node *)
  for v = 0 to 39 do
    if v mod 2 = 0 then ignore (Dolx_core.Update.dol_set_node dol ~subject:0 ~grant:true v)
  done;
  (* rewrite every page from the logical DOL (mirrors Update.refresh) *)
  let rec refresh pre =
    if pre < 40 then begin
      let lp = Nok_layout.page_of layout pre in
      let rs = Nok_layout.records layout pool lp in
      let first = (List.hd rs).Nok_layout.pre in
      let count = List.length rs in
      let rs' =
        List.map
          (fun (r : Nok_layout.record) ->
            let code =
              if r.Nok_layout.pre <> first && Dol.is_transition dol r.Nok_layout.pre then
                Some (Dol.code_at dol r.Nok_layout.pre)
              else None
            in
            { r with Nok_layout.code })
          rs
      in
      Nok_layout.rewrite_page layout pool lp rs' ~code_before:(Dol.code_at dol);
      refresh (first + count)
    end
  in
  refresh 0;
  Alcotest.(check bool) "pages split" true (Nok_layout.page_count layout > pages_before);
  let codes = Nok_layout.codes_of_all_nodes layout pool in
  for v = 0 to 39 do
    check Alcotest.int (Printf.sprintf "code %d" v) (Dol.code_at dol v) codes.(v)
  done;
  let t2 = Nok_layout.decode_tree layout pool ~tag_table:(Tree.tag_table tree) in
  check Alcotest.string "structure preserved across splits"
    (Tree.structure_string tree) (Tree.structure_string t2)

let test_header_table_bytes () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 true in
  let layout, _, _ = build_layout ~page_size:64 tree bools in
  check Alcotest.int "11 bytes per page"
    (11 * Nok_layout.page_count layout)
    (Nok_layout.header_table_bytes layout)

(* --- golden page images --- *)

module Crc = Dolx_util.Crc
module Store = Dolx_core.Secure_store
module Db_file = Dolx_core.Db_file

(* One fixed XMark document with a multi-subject labeling. *)
let golden_tree_dol () =
  let tree = Dolx_workload.Xmark.generate_nodes ~seed:2305 3000 in
  let lab =
    Dolx_workload.Synth_acl.generate_multi tree ~seed:2306 ~n_subjects:8
      ~n_archetypes:3 ()
  in
  (tree, Dol.of_labeling lab)

(* Page count, CRC32C of the page images concatenated in logical order,
   and CRC32C of the page table (physical id and header per page). *)
let layout_digest layout =
  let images = Buffer.create 4096 and table = Buffer.create 1024 in
  for lp = 0 to Nok_layout.page_count layout - 1 do
    Buffer.add_bytes images (Nok_layout.page_image layout lp);
    let h = Nok_layout.header layout lp in
    Printf.bprintf table "%d %d %d %d %b;"
      (Nok_layout.physical_page layout lp)
      h.Nok_layout.first_pre h.Nok_layout.first_code h.Nok_layout.first_depth
      h.Nok_layout.change
  done;
  ( Nok_layout.page_count layout,
    Crc.digest_string (Buffer.contents images),
    Crc.digest_string (Buffer.contents table) )

let digest = Alcotest.(triple int int int)

(* The expected values were taken from the commit before the tree
   build, the event stream and the quarantine filler shared one page
   packer (each had its own packing loop then).  Page images must not
   change with the code that packs them: the page-model counts and the
   Table-1 golden rows depend on them. *)
let test_golden_page_images () =
  let tree, dol = golden_tree_dol () in
  List.iter
    (fun (page_size, fill, expected) ->
      let store = Store.create ~page_size ~fill tree dol in
      check digest
        (Printf.sprintf "page size %d, fill %.1f" page_size fill)
        expected
        (layout_digest (Store.layout store)))
    [
      (256, 0.5, (93, 2554812688, 1520199153));
      (256, 0.9, (49, 3179759907, 2280346002));
      (1024, 0.5, (21, 3586906308, 2453984117));
      (1024, 0.9, (12, 408695923, 3166316583));
      (4096, 0.5, (6, 176856229, 2014387656));
      (4096, 0.9, (3, 3662432475, 3744250236));
    ];
  (* the event driver writes the same pages as the tree build *)
  let s = Nok_layout.stream (Disk.create ~page_size:1024 ()) in
  let rec walk v =
    let code = if Dol.is_transition dol v then Some (Dol.code_at dol v) else None in
    Nok_layout.start_element s ~tag:(Tree.tag tree v) ?code ();
    Tree.iter_children walk tree v;
    Nok_layout.end_element s
  in
  walk Tree.root;
  check digest "event stream, page size 1024, fill 0.9"
    (12, 408695923, 3166316583)
    (layout_digest (Nok_layout.end_stream s));
  (* database images with corrupted pages, loaded with quarantine filler
     in place of the lost ones: one page (one filler page), then three
     adjacent pages (the filler spans more than one page) *)
  let store = Store.create ~page_size:256 tree dol in
  let clean = Db_file.to_bytes store in
  let mid = Nok_layout.page_count (Store.layout store) / 2 in
  List.iter
    (fun (lost, expected_range, expected) ->
      let img = Bytes.copy clean in
      List.iter
        (fun lp ->
          let off, _ = Db_file.page_extent img lp in
          Bytes.set_uint8 img (off + 17) (Bytes.get_uint8 img (off + 17) lxor 0xFF))
        lost;
      let st, _ = Db_file.of_bytes ~on_bad_page:`Deny_subtree img in
      let what = Printf.sprintf "%d lost pages" (List.length lost) in
      check Alcotest.(list (pair int int)) (what ^ ": quarantined range")
        [ expected_range ] (Store.quarantined st);
      check digest (what ^ ": deny-subtree load") expected
        (layout_digest (Store.layout st)))
    [
      ([ mid ], (1536, 1599), (49, 4068741711, 1416777441));
      ([ mid; mid + 1; mid + 2 ], (1536, 1730), (49, 1250098159, 2654148131));
    ]

(* The page table under load: many more pages than frames, so probe
   runs collide, wrap around the table and are cut by evictions; a
   [clear] now and then empties it. *)
let prop_pool_table_many_pages =
  Fixtures.qtest ~count:100 "pool page table = reference LRU (400 pages, clears)"
    QCheck2.Gen.(
      pair (int_range 1 40) (list_size (int_bound 600) (int_bound 420)))
    (fun (capacity, gets) ->
      let d = Disk.create ~page_size:16 () in
      let pages = Array.init 400 (fun _ -> Disk.allocate d) in
      let pool = Buffer_pool.create ~capacity d in
      agrees_with_reference_lru pool ~capacity pages gets)

let suite =
  [
    Alcotest.test_case "page fields" `Quick test_page_fields;
    Alcotest.test_case "disk counters" `Quick test_disk_counters;
    Alcotest.test_case "pool hits + eviction" `Quick test_pool_hits_and_eviction;
    Alcotest.test_case "pool writeback" `Quick test_pool_writeback;
    Alcotest.test_case "pool mark_dirty after evict" `Quick
      test_pool_mark_dirty_after_evict;
    prop_pool_matches_reference_lru;
    Alcotest.test_case "pinned pool mark_dirty raises" `Quick
      test_pinned_pool_mark_dirty_raises;
    Alcotest.test_case "layout roundtrip (figure 2)" `Quick test_layout_roundtrip_figure2;
    Alcotest.test_case "layout codes" `Quick test_layout_codes;
    Alcotest.test_case "layout transition arrays differ" `Quick
      test_layout_transition_arrays_differ;
    Alcotest.test_case "layout headers" `Quick test_layout_headers;
    Alcotest.test_case "page_of consistency" `Quick test_page_of_matches_first_pres;
    prop_layout_roundtrip_random;
    Alcotest.test_case "rewrite page in place" `Quick test_rewrite_page_in_place;
    Alcotest.test_case "rewrite page with split" `Quick test_rewrite_page_split;
    Alcotest.test_case "header table bytes" `Quick test_header_table_bytes;
    Alcotest.test_case "golden page images" `Quick test_golden_page_images;
    prop_pool_table_many_pages;
  ]
