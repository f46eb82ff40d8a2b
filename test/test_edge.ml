(** Edge-case and stress tests across the stack: wide tag vocabularies
    (multi-byte varints in page records), tiny buffer pools, capacity-1
    LRU, multi-mode DOLs over the Unix simulator, codebook redundancy,
    and engine behaviour under eviction pressure. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Multimode = Dolx_core.Multimode
module Update = Dolx_core.Update
module Store = Dolx_core.Secure_store
module Nok_layout = Dolx_storage.Nok_layout
module Buffer_pool = Dolx_storage.Buffer_pool
module Disk = Dolx_storage.Disk
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Tag_index = Dolx_index.Tag_index
module Labeling = Dolx_policy.Labeling
module Bitset = Dolx_util.Bitset
module Prng = Dolx_util.Prng
module Unixfs = Dolx_workload.Unixfs

let check = Alcotest.check

(* A flat tree with [k] distinct tags, ids up to k — tag ids >= 128
   exercise multi-byte varints in the page records. *)
let wide_tag_tree k =
  let b = Tree.Builder.create () in
  ignore (Tree.Builder.open_element b "root");
  for i = 0 to k - 1 do
    ignore (Tree.Builder.leaf b (Printf.sprintf "tag%04d" i) "")
  done;
  Tree.Builder.close_element b;
  Tree.Builder.finish b

let test_layout_wide_tags () =
  let tree = wide_tag_tree 400 in
  let n = Tree.size tree in
  let rng = Prng.create 1 in
  let bools = Fixtures.random_bools rng n 0.5 in
  let dol = Dol.of_bool_array bools in
  let disk = Disk.create ~page_size:256 () in
  let layout =
    Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
  in
  let pool = Buffer_pool.create ~capacity:8 disk in
  let t2 = Nok_layout.decode_tree layout pool ~tag_table:(Tree.tag_table tree) in
  check Alcotest.string "wide tags roundtrip" (Tree.structure_string tree)
    (Tree.structure_string t2);
  let codes = Nok_layout.codes_of_all_nodes layout pool in
  Array.iteri
    (fun v c -> check Alcotest.int (Printf.sprintf "code %d" v) (Dol.code_at dol v) c)
    codes

let test_engine_under_eviction_pressure () =
  (* a pool of 2 frames forces constant eviction; answers must not
     change.  Both store configurations: the default one (run index and
     path summary on) reads a page only for a predicate step, so the
     paper's store (both off), which visits every node it evaluates, is
     the one that puts the pool under pressure. *)
  let tree = Dolx_workload.Xmark.generate_nodes ~seed:21 3000 in
  let n = Tree.size tree in
  let rng = Prng.create 22 in
  let bools = Fixtures.random_bools rng n 0.7 in
  bools.(0) <- true;
  let dol = Dol.of_bool_array bools in
  let index = Tag_index.build tree in
  let misses (roomy, tiny) tiers =
    let make pool_capacity =
      Store.create ~run_index:tiers ~path_summary:tiers ~page_size:1024 ~pool_capacity
        tree dol
    in
    let roomy' = make 256 and tiny' = make 2 in
    List.iter
      (fun (name, q) ->
        List.iter
          (fun sem ->
            let a = (Engine.query roomy' index q sem).Engine.answers in
            let b = (Engine.query tiny' index q sem).Engine.answers in
            check Fixtures.int_list (name ^ " same answers under eviction") a b)
          [ Engine.Insecure; Engine.Secure 0; Engine.Secure_path 0 ])
      Dolx_workload.Xmark.queries;
    ( roomy + (Store.io_stats roomy').Store.pool_misses,
      tiny + (Store.io_stats tiny').Store.pool_misses )
  in
  let roomy, tiny = List.fold_left misses (0, 0) [ true; false ] in
  (* the tiny pool must have missed more *)
  Alcotest.(check bool) "tiny pool misses more" true (tiny > roomy)

let test_pool_capacity_one () =
  let d = Disk.create ~page_size:64 () in
  let a = Disk.allocate d and b = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:1 d in
  let fa = Buffer_pool.get pool a in
  Bytes.set_uint8 fa 0 7;
  Buffer_pool.mark_dirty pool a;
  ignore (Buffer_pool.get pool b) (* evicts and flushes a *);
  let fa' = Buffer_pool.get pool a in
  check Alcotest.int "dirty byte survived eviction" 7 (Bytes.get_uint8 fa' 0)

let test_multimode_unixfs_read_write () =
  let fs =
    Unixfs.generate
      ~config:{ Unixfs.seed = 23; target_nodes = 3000; n_users = 20; n_groups = 5 }
      ()
  in
  let labelings = [| fs.Unixfs.read_labeling; fs.Unixfs.write_labeling |] in
  let combined = Multimode.combine labelings in
  let n = Tree.size fs.Unixfs.tree in
  let rng = Prng.create 24 in
  for _ = 1 to 300 do
    let v = Prng.int rng n in
    let u = Prng.int rng (Array.length fs.Unixfs.users) in
    let subject = fs.Unixfs.users.(u) in
    Alcotest.(check bool) "read bit" (Labeling.accessible fs.Unixfs.read_labeling ~subject v)
      (Multimode.accessible combined ~subject ~mode:0 v);
    Alcotest.(check bool) "write bit" (Labeling.accessible fs.Unixfs.write_labeling ~subject v)
      (Multimode.accessible combined ~subject ~mode:1 v)
  done;
  (* write ⊆ read for permission-bit trees generated here is NOT
     guaranteed (0o660 vs 0o444), so just sanity-check the counts *)
  let _, dol = combined in
  Alcotest.(check bool) "combined has transitions" true (Dol.transition_count dol > 1)

let test_codebook_redundancy_after_removal () =
  let cb = Codebook.create ~width:2 in
  let c00 = Codebook.intern cb (Bitset.of_list 2 []) in
  let c01 = Codebook.intern cb (Bitset.of_list 2 [ 1 ]) in
  let c10 = Codebook.intern cb (Bitset.of_list 2 [ 0 ]) in
  ignore c00;
  ignore c01;
  ignore c10;
  check Alcotest.int "no redundancy yet" 0 (Codebook.redundant_entries cb);
  (* removing subject 1 makes {} and {1} collapse *)
  Codebook.remove_subject cb 1;
  check Alcotest.int "one redundant entry" 1 (Codebook.redundant_entries cb);
  (* interning the collapsed ACL maps to a single surviving code *)
  let c = Codebook.intern cb (Bitset.of_list 1 []) in
  Alcotest.(check bool) "existing code reused" true (c < 3)

let test_update_set_range_acl () =
  let lab =
    Dolx_workload.Synth_acl.generate_multi (Fixtures.figure2_tree ()) ~seed:3
      ~n_subjects:4 ~n_archetypes:2 ()
  in
  let dol = Dol.of_labeling lab in
  let bits = Bitset.of_list 4 [ 1; 3 ] in
  Update.dol_set_range_acl dol ~lo:4 ~hi:11 bits;
  for v = 4 to 11 do
    for s = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "node %d subject %d" v s)
        (Bitset.get bits s)
        (Dol.accessible dol ~subject:s v)
    done
  done;
  (* nodes outside the range untouched *)
  for v = 0 to 3 do
    for s = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "outside %d subject %d" v s)
        (Labeling.accessible lab ~subject:s v)
        (Dol.accessible dol ~subject:s v)
    done
  done;
  Dol.validate dol

let test_xpath_child_axis_spelled_out () =
  let p = Xpath.parse "/child::a/child::b" in
  check Alcotest.int "trunk" 2 (List.length (Dolx_nok.Pattern.trunk p))

let test_single_node_document () =
  let tree = Tree.of_spec (Tree.El ("only", [])) in
  let dol = Dol.of_bool_array [| true |] in
  let store = Store.create tree dol in
  let index = Tag_index.build tree in
  check Fixtures.int_list "self query" [ 0 ]
    (Engine.query store index "/only" (Engine.Secure 0)).Engine.answers;
  check Fixtures.int_list "denied"
    []
    (let dol2 = Dol.of_bool_array [| false |] in
     let store2 = Store.create tree dol2 in
     (Engine.query store2 index "/only" (Engine.Secure 0)).Engine.answers)

let test_deep_chain_document () =
  (* a 500-deep chain: recursion depths, closes_after at the end, page
     header depths *)
  let b = Tree.Builder.create () in
  for _ = 1 to 500 do
    ignore (Tree.Builder.open_element b "n")
  done;
  for _ = 1 to 500 do
    Tree.Builder.close_element b
  done;
  let tree = Tree.Builder.finish b in
  Tree.validate tree;
  check Alcotest.int "closes at leaf" 500 (Tree.closes_after tree 499);
  let bools = Array.init 500 (fun i -> i mod 7 <> 0) in
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:256 tree dol in
  for v = 0 to 499 do
    Alcotest.(check bool) (Printf.sprintf "chain %d" v) bools.(v)
      (Store.accessible store ~subject:0 v)
  done;
  let index = Tag_index.build tree in
  let r = Engine.query store index "//n//n" (Engine.Secure 0) in
  Alcotest.(check bool) "deep join runs" true (List.length r.Engine.answers > 0)

let test_word_boundary_widths () =
  (* 62..66 subjects straddle the 63-bit word boundary of Bitset *)
  let tree = Fixtures.figure2_tree () in
  List.iter
    (fun width ->
      let lab =
        Dolx_workload.Synth_acl.generate_multi tree ~seed:(1000 + width)
          ~n_subjects:width ~n_archetypes:3 ()
      in
      let dol = Dol.of_labeling lab in
      Dol.verify_against dol lab;
      (* persistence across the boundary *)
      let dol' = Dolx_core.Persist.of_bytes (Dolx_core.Persist.to_bytes dol) in
      for v = 0 to Tree.size tree - 1 do
        for s = 0 to width - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "w=%d v=%d s=%d" width v s)
            (Labeling.accessible lab ~subject:s v)
            (Dol.accessible dol' ~subject:s v)
        done
      done;
      (* add/remove a subject across the boundary *)
      let s_new = Update.add_subject dol ~like:(width - 1) () in
      Alcotest.(check bool) "mirrored" true
        (Dol.accessible dol ~subject:s_new 5 = Dol.accessible dol ~subject:(width - 1) 5);
      Update.remove_subject dol 0;
      Update.compact dol;
      Dol.validate dol)
    [ 62; 63; 64; 65; 66 ]

let prop_bitset_boundary =
  Fixtures.qtest ~count:100 "bitset ops across word boundaries"
    QCheck2.Gen.(pair (int_range 60 130) (list_size (int_bound 30) (int_bound 129)))
    (fun (width, picks) ->
      let picks = List.filter (fun i -> i < width) picks in
      let b = Bitset.of_list width picks in
      let expected = List.sort_uniq compare picks in
      Bitset.to_list b = expected
      && Bitset.popcount b = List.length expected
      && Bitset.to_list (Bitset.resize b (width + 63)) = expected
      &&
      match expected with
      | [] -> true
      | first :: rest ->
          (* dropping the lowest set bit shifts every higher index down *)
          Bitset.to_list (Bitset.remove_bit b first)
          = List.map (fun i -> if i > first then i - 1 else i) rest)

let suite =
  [
    Alcotest.test_case "layout: wide tag vocabulary" `Quick test_layout_wide_tags;
    Alcotest.test_case "engine under eviction pressure" `Quick
      test_engine_under_eviction_pressure;
    Alcotest.test_case "buffer pool capacity 1" `Quick test_pool_capacity_one;
    Alcotest.test_case "multimode over unixfs read/write" `Quick
      test_multimode_unixfs_read_write;
    Alcotest.test_case "codebook redundancy after removal" `Quick
      test_codebook_redundancy_after_removal;
    Alcotest.test_case "update: set range ACL" `Quick test_update_set_range_acl;
    Alcotest.test_case "xpath: explicit child axis" `Quick test_xpath_child_axis_spelled_out;
    Alcotest.test_case "single-node document" `Quick test_single_node_document;
    Alcotest.test_case "deep chain document" `Quick test_deep_chain_document;
    Alcotest.test_case "word-boundary subject widths" `Quick test_word_boundary_widths;
    prop_bitset_boundary;
  ]
