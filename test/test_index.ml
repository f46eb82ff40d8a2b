(** Tests for the tag and value indexes and the path summary. *)

module Tag_index = Dolx_index.Tag_index
module Postings = Dolx_index.Postings
module Value_index = Dolx_index.Value_index
module Tree = Dolx_xml.Tree
module Path_summary = Dolx_index.Path_summary
module Gen = Dolx_fuzz.Gen
module Prng = Dolx_util.Prng

let check = Alcotest.check

let test_tag_index_postings () =
  let tree = Fixtures.library_tree () in
  let idx = Tag_index.build tree in
  let table = Tree.tag_table tree in
  let id name = Option.get (Dolx_xml.Tag.find_opt table name) in
  let expected name =
    let acc = ref [] in
    Tree.iter (fun v -> if Tree.tag_name tree v = name then acc := v :: !acc) tree;
    List.rev !acc
  in
  List.iter
    (fun name ->
      check Fixtures.int_list name (expected name)
        (Postings.to_list (Tag_index.postings idx (id name)));
      check Alcotest.int (name ^ " count") (List.length (expected name))
        (Tag_index.count idx (id name)))
    [ "book"; "title"; "shelf"; "library" ]

let test_tag_index_range () =
  let tree = Fixtures.library_tree () in
  let idx = Tag_index.build tree in
  let table = Tree.tag_table tree in
  let book = Option.get (Dolx_xml.Tag.find_opt table "book") in
  let all = Postings.to_list (Tag_index.postings idx book) in
  (* restrict to first shelf's subtree *)
  let shelf1 = 1 in
  let last = Tree.subtree_end tree shelf1 in
  let expected = List.filter (fun v -> v > shelf1 && v <= last) all in
  check Fixtures.int_list "in-subtree postings" expected
    (Postings.to_list (Tag_index.postings_in idx book ~lo:(shelf1 + 1) ~hi:last))

(* Indexes are maintained by rebuilding.  [Tree.insert_subtree] interns
   the fragment's names into the tree's shared tag table, so a stale
   index is asked for an id it never saw ("zz", id 2 on an index built
   with 2 tags): it must answer empty, and the rebuilt index must see
   the fragment.  Returns the old tree, the new tree, the new id and
   the fragment's preorder. *)
let grafted () =
  let tree = Tree.of_spec (Tree.El ("a", [ Tree.El ("b", []) ])) in
  let fragment = Tree.of_spec (Tree.Elt ("zz", "v", [])) in
  let tree', at = Tree.insert_subtree tree ~parent:Tree.root ~after:Tree.nil fragment in
  let zz = Option.get (Dolx_xml.Tag.find_opt (Tree.tag_table tree) "zz") in
  check Alcotest.int "interned past the index" 2 zz;
  (tree, tree', zz, at)

let test_tag_index_maintenance () =
  let tree, tree', zz, at = grafted () in
  let idx = Tag_index.build tree in
  List.iter
    (fun id ->
      let what = Printf.sprintf "stale id %d" id in
      check Fixtures.int_list (what ^ " postings") []
        (Postings.to_list (Tag_index.postings idx id));
      check Fixtures.int_list (what ^ " postings_in") []
        (Postings.to_list (Tag_index.postings_in idx id ~lo:0 ~hi:10));
      check Alcotest.int (what ^ " count") 0 (Tag_index.count idx id))
    [ zz; zz + 7; -1 ];
  check Fixtures.int_list "rebuilt" [ at ]
    (Postings.to_list (Tag_index.postings (Tag_index.build tree') zz))

(* --- value index --- *)

let test_value_index_postings () =
  let tree = Fixtures.library_tree () in
  let vi = Value_index.build tree in
  let table = Tree.tag_table tree in
  let author = Option.get (Dolx_xml.Tag.find_opt table "author") in
  let expected value =
    let acc = ref [] in
    Tree.iter
      (fun v ->
        if Tree.tag tree v = author && Tree.text tree v = value then acc := v :: !acc)
      tree;
    List.rev !acc
  in
  List.iter
    (fun value ->
      Alcotest.check Fixtures.int_list value (expected value)
        (Postings.to_list (Value_index.postings vi author ~value)))
    [ "codd"; "milner"; "anon"; "nobody" ];
  (* wrong tag, right text *)
  let title = Option.get (Dolx_xml.Tag.find_opt table "title") in
  Alcotest.check Fixtures.int_list "no cross-tag hits" []
    (Postings.to_list (Value_index.postings vi title ~value:"codd"))

let test_value_index_range_and_maintenance () =
  let tree = Fixtures.library_tree () in
  let vi = Value_index.build tree in
  let table = Tree.tag_table tree in
  let author = Option.get (Dolx_xml.Tag.find_opt table "author") in
  let all = Postings.to_list (Value_index.postings vi author ~value:"codd") in
  Alcotest.check Alcotest.int "two codd books" 2 (List.length all);
  let first = List.hd all in
  Alcotest.check Fixtures.int_list "restricted" [ first ]
    (Postings.to_list (Value_index.postings_in vi author ~value:"codd" ~lo:0 ~hi:first));
  let tree, tree', zz, at = grafted () in
  let vi = Value_index.build tree in
  List.iter
    (fun id ->
      let what = Printf.sprintf "stale id %d" id in
      Alcotest.check Fixtures.int_list (what ^ " postings") []
        (Postings.to_list (Value_index.postings vi id ~value:"v"));
      Alcotest.check Fixtures.int_list (what ^ " postings_in") []
        (Postings.to_list (Value_index.postings_in vi id ~value:"v" ~lo:0 ~hi:10)))
    [ zz; zz + 7; -1 ];
  Alcotest.check Fixtures.int_list "rebuilt" [ at ]
    (Postings.to_list (Value_index.postings (Value_index.build tree') zz ~value:"v"))

let test_engine_with_value_index () =
  let tree = Fixtures.library_tree () in
  let n = Tree.size tree in
  let dol = Dolx_core.Dol.of_bool_array (Array.make n true) in
  let store = Dolx_core.Secure_store.create tree dol in
  let index = Tag_index.build tree in
  let vi = Value_index.build tree in
  let module Engine = Dolx_nok.Engine in
  List.iter
    (fun q ->
      let plain = (Engine.query store index q (Engine.Secure 0)).Engine.answers in
      let seeded =
        (Engine.query ~value_index:vi store index q (Engine.Secure 0)).Engine.answers
      in
      Alcotest.check Fixtures.int_list q plain seeded)
    [ "//author=\"codd\""; "//title=\"joins\""; "//book[author=\"codd\"]/title" ]

(* Path-summary fixtures: randomized documents plus the degenerate
   shapes (deep chain, wide fan-out). *)

(* A deep chain: a > b > c > ... nested [depth] levels. *)
let chain_tree depth =
  let b = Tree.Builder.create () in
  for i = 0 to depth - 1 do
    ignore (Tree.Builder.open_element b (Printf.sprintf "t%d" (i mod 7)))
  done;
  for _ = 0 to depth - 1 do
    Tree.Builder.close_element b
  done;
  Tree.Builder.finish b

(* A wide star: one root with [fanout] leaf children. *)
let star_tree fanout =
  let b = Tree.Builder.create () in
  ignore (Tree.Builder.open_element b "root");
  for i = 0 to fanout - 1 do
    ignore (Tree.Builder.leaf b (Printf.sprintf "c%d" (i mod 5)) "")
  done;
  Tree.Builder.close_element b;
  Tree.Builder.finish b

let shapes () =
  let random =
    List.map
      (fun (seed, nodes) -> (Printf.sprintf "random-%d" seed, Gen.tree ~seed ~nodes))
      [ (1, 3); (2, 64); (3, 257); (4, 600); (5, 1025) ]
  in
  random
  @ [
      ("chain-400", chain_tree 400);
      ("chain-1100", chain_tree 1100);
      ("star-1500", star_tree 1500);
      ("spec", Tree.of_spec
         (Tree.El ("a", [ Tree.El ("b", [ Tree.El ("d", []) ]);
                          Tree.El ("c", []) ])));
    ]

(* Path-summary oracle: group nodes by their root tag path computed by
   walking the arena, then compare every per-class statistic. *)
let test_summary_extents () =
  List.iter
    (fun (name, tree) ->
      let ps = Path_summary.build tree in
      let n = Tree.size tree in
      let path v =
        let rec up v acc =
          if v = Tree.nil then acc
          else up (Tree.parent tree v) (Tree.tag tree v :: acc)
        in
        up v []
      in
      let groups = Hashtbl.create 64 in
      for v = 0 to n - 1 do
        let k = path v in
        Hashtbl.replace groups k (v :: Option.value ~default:[] (Hashtbl.find_opt groups k))
      done;
      check Alcotest.int (name ^ " classes") (Hashtbl.length groups)
        (Path_summary.node_count ps);
      let total = ref 0 in
      for v = 0 to n - 1 do
        let c = Path_summary.class_of ps v in
        (* same class iff same path *)
        check Alcotest.int
          (Printf.sprintf "%s tag of class of %d" name v)
          (Tree.tag tree v) (Path_summary.tag ps c);
        if v > 0 then
          check Alcotest.int
            (Printf.sprintf "%s parent class of %d" name v)
            (Path_summary.class_of ps (Tree.parent tree v))
            (Path_summary.parent ps c)
      done;
      Hashtbl.iter
        (fun _ vs ->
          let c = Path_summary.class_of ps (List.hd vs) in
          List.iter
            (fun v ->
              check Alcotest.int (name ^ " class agrees") c
                (Path_summary.class_of ps v))
            vs;
          check Alcotest.int (name ^ " extent") (List.length vs)
            (Path_summary.extent ps c);
          let lo = List.fold_left min max_int vs
          and hi = List.fold_left max (-1) vs in
          check
            Alcotest.(pair int int)
            (name ^ " span") (lo, hi) (Path_summary.span ps c);
          check Alcotest.bool (name ^ " has_leaf")
            (List.exists (Tree.is_leaf tree) vs)
            (Path_summary.has_leaf ps c);
          total := !total + List.length vs)
        groups;
      check Alcotest.int (name ^ " extents partition") n !total;
      (* leaf-path count against brute force *)
      let leaf_paths = Hashtbl.create 64 in
      for v = 0 to n - 1 do
        if Tree.is_leaf tree v then Hashtbl.replace leaf_paths (path v) ()
      done;
      check Alcotest.int (name ^ " leaf paths") (Hashtbl.length leaf_paths)
        (Path_summary.leaf_path_count ps);
      (* classes_with_tag covers every class exactly once *)
      let seen = Hashtbl.create 64 in
      Dolx_xml.Tag.iter
        (fun id _ ->
          List.iter
            (fun c ->
              check Alcotest.int (name ^ " by_tag tag") id (Path_summary.tag ps c);
              if Hashtbl.mem seen c then Alcotest.failf "%s: class listed twice" name;
              Hashtbl.replace seen c ())
            (Path_summary.classes_with_tag ps id))
        (Tree.tag_table tree);
      check Alcotest.int (name ^ " by_tag total") (Path_summary.node_count ps)
        (Hashtbl.length seen))
    (shapes ())

(* Both indexes against a naive scan of random trees: every tag id the
   tree knows plus ids it never saw, every text value plus an unknown
   one, and ranges that are empty (lo > hi), past the end, a single
   node, or random. *)
let prop_indexes_vs_scan =
  Fixtures.qtest ~count:60 "tag + value index = naive scan"
    QCheck2.Gen.(
      triple (int_bound 100_000) (int_range 1 400) (pair (int_bound 450) (int_bound 450)))
    (fun (seed, nodes, (a, b)) ->
      let tree = Gen.tree ~seed ~nodes in
      let n = Tree.size tree in
      let idx = Tag_index.build tree and vi = Value_index.build tree in
      let scan p ~lo ~hi =
        Tree.fold (fun acc v -> if v >= lo && v <= hi && p v then v :: acc else acc) [] tree
        |> List.rev
      in
      let ranges =
        [ (0, n - 1); (n - 1, 0); (max a b, min a b); (n, n + 5); (a mod n, a mod n);
          (min a b, max a b) ]
      in
      let values =
        List.sort_uniq compare
          ("unknown" :: Tree.fold (fun acc v -> Tree.text tree v :: acc) [] tree)
        |> List.filter (( <> ) "")
      in
      let agrees p postings postings_in =
        Postings.to_list postings = scan p ~lo:0 ~hi:n
        && List.for_all
             (fun (lo, hi) -> Postings.to_list (postings_in ~lo ~hi) = scan p ~lo ~hi)
             ranges
      in
      let n_tags = Dolx_xml.Tag.count (Tree.tag_table tree) in
      List.for_all
        (fun tag ->
          let has_tag v = Tree.tag tree v = tag in
          agrees has_tag (Tag_index.postings idx tag) (Tag_index.postings_in idx tag)
          && Tag_index.count idx tag = List.length (scan has_tag ~lo:0 ~hi:n)
          && List.for_all
               (fun value ->
                 agrees
                   (fun v -> has_tag v && Tree.text tree v = value)
                   (Value_index.postings vi tag ~value)
                   (Value_index.postings_in vi tag ~value))
               values)
        (-1 :: List.init (n_tags + 2) Fun.id))

let suite =
  [
    Alcotest.test_case "tag index postings" `Quick test_tag_index_postings;
    Alcotest.test_case "tag index range" `Quick test_tag_index_range;
    Alcotest.test_case "tag index maintenance" `Quick test_tag_index_maintenance;
    Alcotest.test_case "value index postings" `Quick test_value_index_postings;
    Alcotest.test_case "value index range + maintenance" `Quick
      test_value_index_range_and_maintenance;
    Alcotest.test_case "engine with value index" `Quick test_engine_with_value_index;
    Alcotest.test_case "path-summary extents vs traversal" `Quick test_summary_extents;
    prop_indexes_vs_scan;
  ]
