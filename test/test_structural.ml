(** End-to-end structural updates: tree edits + DOL surgery + store
    rebuild, cross-checked against recompilation and the query oracle. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Update = Dolx_core.Update
module Store = Dolx_core.Secure_store
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Tag_index = Dolx_index.Tag_index
module Prng = Dolx_util.Prng

let check = Alcotest.check

let test_remove_subtree_tree () =
  let t = Fixtures.figure2_tree () in
  let t' = Tree.remove_subtree t 7 (* h and its children *) in
  Tree.validate t';
  check Alcotest.string "structure" "a(b)(c)(d)(e(f)(g))" (Tree.structure_string t');
  Alcotest.check_raises "root is not removable"
    (Invalid_argument "Tree.remove_subtree: cannot remove the root") (fun () ->
      ignore (Tree.remove_subtree t 0))

let test_insert_subtree_tree () =
  let t = Fixtures.figure2_tree () in
  let sub = Tree.of_spec (Tree.El ("x", [ Tree.El ("y", []) ])) in
  (* as first child of e *)
  let t1, pos1 = Tree.insert_subtree t ~parent:4 ~after:Tree.nil sub in
  Tree.validate t1;
  check Alcotest.int "lands right after e" 5 pos1;
  check Alcotest.string "structure" "a(b)(c)(d)(e(x(y))(f)(g)(h(i)(j)(k)(l)))"
    (Tree.structure_string t1);
  (* after sibling f *)
  let t2, pos2 = Tree.insert_subtree t ~parent:4 ~after:5 sub in
  Tree.validate t2;
  check Alcotest.int "lands after f" 6 pos2;
  check Alcotest.string "structure 2" "a(b)(c)(d)(e(f)(x(y))(g)(h(i)(j)(k)(l)))"
    (Tree.structure_string t2);
  (* text survives *)
  let td = Fixtures.library_tree () in
  let td', _ = Tree.insert_subtree td ~parent:0 ~after:Tree.nil sub in
  check Alcotest.string "text preserved" (Tree.text td 3) (Tree.text td' 5)

let test_structural_update_end_to_end () =
  (* delete a subtree: tree + DOL + store stay consistent *)
  let tree = Fixtures.figure2_tree () in
  let bools = [| true; true; false; true; true; false; true; true; false; true; false; true |] in
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:128 tree dol in
  (* remove subtree e = range [4, 11] *)
  let tree' = Tree.remove_subtree tree 4 in
  let dol' = Update.dol_delete dol ~lo:4 ~hi:11 in
  let store' = Store.rebuild store tree' dol' in
  check Alcotest.int "sizes agree" (Tree.size tree') (Dol.n_nodes dol');
  for v = 0 to Tree.size tree' - 1 do
    Alcotest.(check bool) (Printf.sprintf "store node %d" v) bools.(v)
      (Store.accessible store' ~subject:0 v)
  done;
  (* insert it back in front of b: structure differs from the original
     (e goes first) but the node count is restored *)
  let sub_tree =
    (* rebuild the removed fragment as its own document *)
    Dolx_xml.Parser.parse (Dolx_xml.Serializer.to_string ~v:4 tree)
  in
  let sub_dol = Update.extract_range dol ~lo:4 ~hi:11 in
  let tree2, pos = Tree.insert_subtree tree' ~parent:0 ~after:Tree.nil sub_tree in
  let dol2 = Update.dol_insert dol' ~at:pos sub_dol in
  let store2 = Store.rebuild store' tree2 dol2 in
  check Alcotest.int "restored size" (Tree.size tree) (Tree.size tree2);
  check Alcotest.string "e moved to front" "a(e(f)(g)(h(i)(j)(k)(l)))(b)(c)(d)"
    (Tree.structure_string tree2);
  (* accessibility follows the moved nodes *)
  let expected_at v2 =
    (* nodes 1..8 are the old 4..11; nodes 9..11 are the old 1..3 *)
    if v2 = 0 then bools.(0)
    else if v2 <= 8 then bools.(v2 + 3)
    else bools.(v2 - 8)
  in
  for v = 0 to Tree.size tree2 - 1 do
    Alcotest.(check bool) (Printf.sprintf "moved node %d" v) (expected_at v)
      (Store.accessible store2 ~subject:0 v)
  done

let prop_structural_random =
  Fixtures.qtest ~count:60 "random subtree moves keep tree+DOL+queries consistent"
    QCheck2.Gen.(quad (int_bound 100_000) (int_range 3 120) (int_bound 1000) (int_bound 1000))
    (fun (seed, n, pick1, pick2) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      (* remove a random non-root subtree *)
      let v = 1 + (pick1 mod (n - 1)) in
      let hi = Tree.subtree_end tree v in
      let sub_tree = Dolx_xml.Parser.parse (Dolx_xml.Serializer.to_string ~v tree) in
      let sub_dol = Update.extract_range dol ~lo:v ~hi in
      let tree' = Tree.remove_subtree tree v in
      let dol' = Update.dol_delete dol ~lo:v ~hi in
      Tree.validate tree';
      Dol.validate dol';
      (* re-insert under a random surviving node *)
      let parent = pick2 mod Tree.size tree' in
      let tree2, pos = Tree.insert_subtree tree' ~parent ~after:Tree.nil sub_tree in
      let dol2 = Update.dol_insert dol' ~at:pos sub_dol in
      Tree.validate tree2;
      Dol.validate dol2;
      Tree.size tree2 = Dol.n_nodes dol2
      && Tree.size tree2 = n
      (* every node's verdict matches its tag-based identity:
         cross-check by evaluating a query on a rebuilt store against
         the oracle with the new accessibility array *)
      &&
      let bools2 = Array.init n (fun u -> Dol.accessible dol2 ~subject:0 u) in
      let store2 = Store.create ~page_size:256 tree2 dol2 in
      let index2 = Tag_index.build tree2 in
      let pattern = Xpath.parse "//a[b]" in
      (Engine.run store2 index2 pattern (Engine.Secure 0)).Engine.answers
      = Reference.eval tree2 (Reference.Bound (fun u -> bools2.(u))) pattern)

let test_queries_after_structural_change () =
  (* delete a whole region from an XMark doc and check Q1 adapts *)
  let tree = Dolx_workload.Xmark.generate_nodes ~seed:31 3000 in
  let n = Tree.size tree in
  let dol = Dol.of_bool_array (Array.make n true) in
  let store = Store.create tree dol in
  let index = Tag_index.build tree in
  let q = "/site/regions/africa/item" in
  let before = Engine.query store index q Engine.Insecure in
  Alcotest.(check bool) "has items before" true (List.length before.Engine.answers > 0);
  (* find africa and delete it *)
  let africa = List.hd (Engine.query store index "/site/regions/africa" Engine.Insecure).Engine.answers in
  let hi = Tree.subtree_end tree africa in
  let tree' = Tree.remove_subtree tree africa in
  let dol' = Update.dol_delete dol ~lo:africa ~hi in
  let store' = Store.rebuild store tree' dol' in
  let index' = Tag_index.build tree' in
  let after = Engine.query store' index' q Engine.Insecure in
  check Fixtures.int_list "no africa items left" [] after.Engine.answers;
  (* the other regions still answer *)
  let asia = Engine.query store' index' "/site/regions/asia/item" Engine.Insecure in
  Alcotest.(check bool) "asia unaffected" true (List.length asia.Engine.answers > 0)

let test_rebuild_keeps_fill () =
  let rng = Prng.create 17 in
  let tree = Fixtures.random_tree rng 300 in
  let dol = Dol.of_bool_array (Fixtures.random_bools rng 300 0.5) in
  let store = Store.create ~page_size:128 ~fill:0.5 tree dol in
  let tree' = Tree.remove_subtree tree 1 in
  let lo, hi = (1, Tree.subtree_end tree 1) in
  let dol' = Update.dol_delete dol ~lo ~hi in
  let pages s = Dolx_storage.Nok_layout.page_count (Store.layout s) in
  check Alcotest.int "rebuild lays out at the store's fill"
    (pages (Store.create ~page_size:128 ~fill:0.5 tree' dol'))
    (pages (Store.rebuild store tree' dol'))

let suite =
  [
    Alcotest.test_case "tree: remove subtree" `Quick test_remove_subtree_tree;
    Alcotest.test_case "tree: insert subtree" `Quick test_insert_subtree_tree;
    Alcotest.test_case "structural update end to end" `Quick
      test_structural_update_end_to_end;
    prop_structural_random;
    Alcotest.test_case "queries after structural change" `Quick
      test_queries_after_structural_change;
    Alcotest.test_case "rebuild keeps the store's fill" `Quick
      test_rebuild_keeps_fill;
  ]
