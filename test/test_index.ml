(** Tests for the B+-tree, the tag index and the path summary. *)

module Btree = Dolx_index.Btree
module Tag_index = Dolx_index.Tag_index
module Tree = Dolx_xml.Tree
module Path_summary = Dolx_index.Path_summary
module Gen = Dolx_fuzz.Gen
module Prng = Dolx_util.Prng

let check = Alcotest.check

let test_btree_basic () =
  let t = Btree.create ~order:4 () in
  List.iter (fun k -> Btree.insert t k (k * 10)) [ 5; 3; 8; 1; 9; 7; 2; 6; 4 ];
  check Alcotest.int "count" 9 (Btree.count t);
  check Alcotest.(option int) "find 7" (Some 70) (Btree.find t 7);
  check Alcotest.(option int) "find missing" None (Btree.find t 10);
  Btree.validate t;
  Alcotest.(check bool) "height grew" true (Btree.height t > 1)

let test_btree_overwrite () =
  let t = Btree.create () in
  Btree.insert t 1 10;
  Btree.insert t 1 20;
  check Alcotest.int "count stays 1" 1 (Btree.count t);
  check Alcotest.(option int) "latest value" (Some 20) (Btree.find t 1)

let test_btree_range () =
  let t = Btree.create ~order:4 () in
  for k = 0 to 99 do
    Btree.insert t (k * 2) k
  done;
  let r = Btree.range t ~lo:10 ~hi:20 in
  check
    Alcotest.(list (pair int int))
    "range" [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ]
    r;
  check Alcotest.(list (pair int int)) "empty range" [] (Btree.range t ~lo:301 ~hi:400)

let test_btree_remove () =
  let t = Btree.create ~order:4 () in
  for k = 0 to 50 do
    Btree.insert t k k
  done;
  Alcotest.(check bool) "removed" true (Btree.remove t 25);
  Alcotest.(check bool) "second remove fails" false (Btree.remove t 25);
  check Alcotest.(option int) "gone" None (Btree.find t 25);
  check Alcotest.int "count" 50 (Btree.count t);
  Btree.validate t

let prop_btree_vs_map =
  Fixtures.qtest ~count:60 "btree agrees with Map under random ops"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 500))
    (fun (seed, n_ops) ->
      let module M = Map.Make (Int) in
      let rng = Prng.create seed in
      let t = Btree.create ~order:4 () in
      let m = ref M.empty in
      for _ = 1 to n_ops do
        let k = Prng.int rng 200 in
        match Prng.int rng 3 with
        | 0 | 1 ->
            let v = Prng.int rng 1000 in
            Btree.insert t k v;
            m := M.add k v !m
        | _ ->
            let removed = Btree.remove t k in
            let expected = M.mem k !m in
            m := M.remove k !m;
            if removed <> expected then failwith "remove disagreement"
      done;
      Btree.validate t;
      Btree.count t = M.cardinal !m
      && M.for_all (fun k v -> Btree.find t k = Some v) !m
      && List.for_all
           (fun (k, v) -> M.find_opt k !m = Some v)
           (Btree.range t ~lo:min_int ~hi:max_int))

let prop_btree_range_vs_map =
  Fixtures.qtest ~count:60 "btree range = map filter"
    QCheck2.Gen.(
      triple (int_bound 100_000) (int_range 1 300) (pair (int_bound 250) (int_bound 250)))
    (fun (seed, n, (a, b)) ->
      let module M = Map.Make (Int) in
      let rng = Prng.create seed in
      let t = Btree.create ~order:4 () in
      let m = ref M.empty in
      for _ = 1 to n do
        let k = Prng.int rng 200 and v = Prng.int rng 100 in
        Btree.insert t k v;
        m := M.add k v !m
      done;
      let lo = min a b and hi = max a b in
      let expected =
        M.bindings (M.filter (fun k _ -> k >= lo && k <= hi) !m)
      in
      Btree.range t ~lo ~hi = expected)

let test_btree_large_sequential () =
  let t = Btree.create ~order:8 () in
  for k = 0 to 9999 do
    Btree.insert t k k
  done;
  Btree.validate t;
  check Alcotest.int "count" 10_000 (Btree.count t);
  Alcotest.(check bool) "reasonable height" true (Btree.height t <= 7);
  check Alcotest.(option int) "spot check" (Some 8888) (Btree.find t 8888)

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
      check Fixtures.int_list name (expected name) (Tag_index.postings idx (id name)))
    [ "book"; "title"; "shelf"; "library" ];
  check Alcotest.int "entry count = nodes" (Tree.size tree) (Tag_index.entry_count idx)

let test_tag_index_range () =
  let tree = Fixtures.library_tree () in
  let idx = Tag_index.build tree in
  let table = Tree.tag_table tree in
  let book = Option.get (Dolx_xml.Tag.find_opt table "book") in
  let all = Tag_index.postings idx book in
  (* restrict to first shelf's subtree *)
  let shelf1 = 1 in
  let last = Tree.subtree_end tree shelf1 in
  let expected = List.filter (fun v -> v > shelf1 && v <= last) all in
  check Fixtures.int_list "in-subtree postings" expected
    (Tag_index.postings_in idx book ~lo:(shelf1 + 1) ~hi:last)

let test_tag_index_maintenance () =
  let tree = Fixtures.library_tree () in
  let idx = Tag_index.build tree in
  let table = Tree.tag_table tree in
  let book = Option.get (Dolx_xml.Tag.find_opt table "book") in
  let before = Tag_index.postings idx book in
  Tag_index.remove idx book (List.hd before);
  check Alcotest.int "one fewer" (List.length before - 1)
    (List.length (Tag_index.postings idx book));
  Tag_index.insert idx book (List.hd before);
  check Fixtures.int_list "restored" before (Tag_index.postings idx book)

let prop_of_sorted_equals_inserts =
  Fixtures.qtest ~count:60 "bulk load = repeated inserts"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 0 600))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let keys = List.sort_uniq compare (List.init n (fun _ -> Prng.int rng 5000)) in
      let pairs = List.map (fun k -> (k, k * 3)) keys in
      let bulk = Btree.of_sorted ~order:8 pairs in
      Btree.validate bulk;
      let incr = Btree.create ~order:8 () in
      List.iter (fun (k, v) -> Btree.insert incr k v) pairs;
      Btree.count bulk = Btree.count incr
      && Btree.range bulk ~lo:min_int ~hi:max_int
         = Btree.range incr ~lo:min_int ~hi:max_int
      && List.for_all (fun (k, v) -> Btree.find bulk k = Some v) pairs)

let test_of_sorted_rejects_unsorted () =
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Btree.of_sorted: keys must be strictly increasing")
    (fun () -> ignore (Btree.of_sorted [ (2, 0); (1, 0) ]))

let test_of_sorted_then_insert () =
  let t = Btree.of_sorted ~order:4 (List.init 100 (fun i -> (i * 2, i))) in
  Btree.insert t 51 999;
  Btree.validate t;
  Alcotest.check Alcotest.(option int) "old key" (Some 25) (Btree.find t 50);
  Alcotest.check Alcotest.(option int) "new key" (Some 999) (Btree.find t 51)

(* --- value index --- *)

module Value_index = Dolx_index.Value_index

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
        (Value_index.postings vi author ~value))
    [ "codd"; "milner"; "anon"; "nobody" ];
  (* wrong tag, right text *)
  let title = Option.get (Dolx_xml.Tag.find_opt table "title") in
  Alcotest.check Fixtures.int_list "no cross-tag hits" []
    (Value_index.postings vi title ~value:"codd")

let test_value_index_range_and_maintenance () =
  let tree = Fixtures.library_tree () in
  let vi = Value_index.build tree in
  let table = Tree.tag_table tree in
  let author = Option.get (Dolx_xml.Tag.find_opt table "author") in
  let all = Value_index.postings vi author ~value:"codd" in
  Alcotest.check Alcotest.int "two codd books" 2 (List.length all);
  let first = List.hd all in
  Alcotest.check Fixtures.int_list "restricted" [ first ]
    (Value_index.postings_in vi author ~value:"codd" ~lo:0 ~hi:first);
  Value_index.remove vi author ~value:"codd" first;
  Alcotest.check Alcotest.int "one left" 1
    (List.length (Value_index.postings vi author ~value:"codd"));
  Value_index.insert vi author ~value:"codd" first;
  Alcotest.check Fixtures.int_list "restored" all
    (Value_index.postings vi author ~value:"codd")

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

let suite =
  [
    Alcotest.test_case "btree basic" `Quick test_btree_basic;
    Alcotest.test_case "btree overwrite" `Quick test_btree_overwrite;
    Alcotest.test_case "btree range" `Quick test_btree_range;
    Alcotest.test_case "btree remove" `Quick test_btree_remove;
    prop_btree_vs_map;
    prop_btree_range_vs_map;
    Alcotest.test_case "btree large sequential" `Quick test_btree_large_sequential;
    Alcotest.test_case "tag index postings" `Quick test_tag_index_postings;
    Alcotest.test_case "tag index range" `Quick test_tag_index_range;
    Alcotest.test_case "tag index maintenance" `Quick test_tag_index_maintenance;
    prop_of_sorted_equals_inserts;
    Alcotest.test_case "of_sorted rejects unsorted" `Quick test_of_sorted_rejects_unsorted;
    Alcotest.test_case "of_sorted then insert" `Quick test_of_sorted_then_insert;
    Alcotest.test_case "value index postings" `Quick test_value_index_postings;
    Alcotest.test_case "value index range + maintenance" `Quick
      test_value_index_range_and_maintenance;
    Alcotest.test_case "engine with value index" `Quick test_engine_with_value_index;
    Alcotest.test_case "path-summary extents vs traversal" `Quick test_summary_extents;
  ]
