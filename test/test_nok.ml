(** Tests for the NoK query processor: XPath parsing, decomposition,
    Algorithm 1, structural joins, and the engine against the naive
    reference evaluator under all three semantics. *)

module Tree = Dolx_xml.Tree
module Pattern = Dolx_nok.Pattern
module Xpath = Dolx_nok.Xpath
module Decompose = Dolx_nok.Decompose
module Nok_match = Dolx_nok.Nok_match
module Structural_join = Dolx_nok.Structural_join
module Engine = Dolx_nok.Engine
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Tag_index = Dolx_index.Tag_index
module Postings = Dolx_index.Postings
module Labeling = Dolx_policy.Labeling
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

(* --- XPath parsing --- *)

let test_parse_simple_path () =
  let p = Xpath.parse "/site/regions/africa" in
  let trunk = Pattern.trunk p in
  check Alcotest.int "trunk length" 3 (List.length trunk);
  let tags =
    List.map
      (fun (n : Pattern.pnode) ->
        match n.Pattern.test with Pattern.Tag t -> t | Pattern.Wildcard -> "*")
      trunk
  in
  check Alcotest.(list string) "tags" [ "site"; "regions"; "africa" ] tags;
  let returning = Pattern.returning_node p in
  Alcotest.(check bool) "last is returning" true
    (returning.Pattern.test = Pattern.Tag "africa")

let test_parse_predicates () =
  let p = Xpath.parse "/site/regions/africa/item[location][name][quantity]" in
  let returning = Pattern.returning_node p in
  check Alcotest.int "three predicates" 3 (List.length returning.Pattern.children);
  check Alcotest.int "node count" 7 (Pattern.node_count p)

let test_parse_descendant_and_wildcard () =
  let p = Xpath.parse "//listitem//keyword" in
  let trunk = Pattern.trunk p in
  check Alcotest.int "two steps" 2 (List.length trunk);
  List.iter
    (fun (n : Pattern.pnode) ->
      Alcotest.(check bool) "descendant axis" true (n.Pattern.axis = Pattern.Descendant))
    trunk;
  let w = Xpath.parse "/a/*/b" in
  check Alcotest.int "wildcard trunk" 3 (List.length (Pattern.trunk w))

let test_parse_value_predicate () =
  let p = Xpath.parse "/people/person[name=\"alice\"]/phone" in
  let trunk = Pattern.trunk p in
  let person = List.nth trunk 1 in
  (match person.Pattern.children with
  | [ name_pred ] -> (
      match (name_pred.Pattern.test, name_pred.Pattern.value) with
      | Pattern.Tag "name", Some "alice" -> ()
      | _ -> Alcotest.fail "wrong predicate")
  | l ->
      (* trunk child (phone) is also a child; filter non-trunk *)
      let non_trunk =
        List.filter (fun (c : Pattern.pnode) -> c.Pattern.test = Pattern.Tag "name") l
      in
      match non_trunk with
      | [ name_pred ] ->
          Alcotest.(check (option string)) "value" (Some "alice") name_pred.Pattern.value
      | _ -> Alcotest.fail "missing predicate");
  check Alcotest.int "trunk depth" 3 (List.length trunk)

let test_parse_errors () =
  let fails s =
    match Xpath.parse s with
    | exception Xpath.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  fails "";
  fails "site/foo";
  fails "/site[";
  fails "/site]extra";
  fails "/site/";
  fails "/site[pred"

let test_parse_queries_table1 () =
  List.iter
    (fun (name, q) ->
      match Xpath.parse q with
      | _ -> ()
      | exception e -> Alcotest.failf "%s failed to parse: %s" name (Printexc.to_string e))
    Xmark.queries

(* --- decomposition --- *)

let test_decompose_single_segment () =
  let p = Xpath.parse "/site/regions/africa/item[location][name]" in
  let plan = Decompose.plan p in
  check Alcotest.int "one NoK subtree" 1 (Decompose.segment_count plan);
  Alcotest.(check bool) "no join" false (Decompose.needs_join plan)

let test_decompose_join_queries () =
  let plan = Decompose.plan (Xpath.parse "//parlist//parlist") in
  check Alcotest.int "two segments" 2 (Decompose.segment_count plan);
  let plan3 = Decompose.plan (Xpath.parse "//a/b//c/d//e") in
  check Alcotest.int "three segments" 3 (Decompose.segment_count plan3)

(* --- engine vs reference oracle --- *)

let build_secured tree bools =
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:256 ~pool_capacity:64 tree dol in
  let index = Tag_index.build tree in
  (store, index)

let compare_engine_to_reference tree bools query =
  let store, index = build_secured tree bools in
  let pattern = Xpath.parse query in
  let acc v = bools.(v) in
  let cases =
    [
      ("insecure", Engine.Insecure, Reference.Any);
      ("secure", Engine.Secure 0, Reference.Bound acc);
      ("secure-path", Engine.Secure_path 0, Reference.Path acc);
    ]
  in
  List.iter
    (fun (label, sem, ref_sem) ->
      let got = (Engine.run store index pattern sem).Engine.answers in
      let expected = Reference.eval tree ref_sem pattern in
      check Fixtures.int_list (Printf.sprintf "%s: %s" query label) expected got)
    cases

let test_engine_library_queries () =
  let tree = Fixtures.library_tree () in
  let n = Tree.size tree in
  let all = Array.make n true in
  List.iter
    (compare_engine_to_reference tree all)
    [
      "/library/shelf/book";
      "/library/shelf/book/title";
      "//book";
      "//book/title";
      "/library//book[author]";
      "//shelf//title";
      "/library/shelf/book[author=\"codd\"]/title";
      "//book[title=\"joins\"]";
      "/library/*/book";
      "//box//title";
    ]

let test_engine_secure_filtering () =
  let tree = Fixtures.library_tree () in
  let n = Tree.size tree in
  let bools = Array.make n true in
  (* hide the box subtree *)
  let box = 8 in
  Alcotest.(check string) "box preorder" "box" (Tree.tag_name tree box);
  for v = box to Tree.subtree_end tree box do
    bools.(v) <- false
  done;
  List.iter
    (compare_engine_to_reference tree bools)
    [ "//book"; "//book/title"; "/library/shelf/book"; "//box//title"; "//shelf//title" ]

let test_engine_path_vs_bound_semantics () =
  (* inaccessible intermediate node: Cho keeps the answer, path drops it *)
  let tree = Fixtures.library_tree () in
  let n = Tree.size tree in
  let bools = Array.make n true in
  let box = 8 in
  bools.(box) <- false (* the box itself; its book stays accessible *);
  let store, index = build_secured tree bools in
  let q = "//shelf//title" in
  let secure = (Engine.query store index q (Engine.Secure 0)).Engine.answers in
  let path = (Engine.query store index q (Engine.Secure_path 0)).Engine.answers in
  Alcotest.(check bool) "path semantics strictly smaller" true
    (List.length path < List.length secure);
  compare_engine_to_reference tree bools q

let prop_engine_vs_reference_random =
  Fixtures.qtest ~count:60 "engine = oracle on random trees/ACLs/semantics"
    QCheck2.Gen.(
      quad (int_bound 100_000) (int_range 2 120) (int_range 1 9)
        (int_bound 15))
    (fun (seed, n, p10, qpick) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n (float_of_int p10 /. 10.0) in
      bools.(0) <- true;
      let queries =
        [|
          "//a"; "//b/c"; "//a//b"; "//a[b]"; "//a/b[c]"; "//b//c//d";
          "//*[a]"; "//a[b][c]"; "//a[b/c]"; "//a[b//c]"; "//d"; "//c/d";
          "//a/following-sibling::b[c]"; "//a[following-sibling::b]//c";
          "//b[c//d]"; "//a/*//b";
        |]
      in
      let q = queries.(qpick) in
      let store, index = build_secured tree bools in
      let pattern = Xpath.parse q in
      let acc v = bools.(v) in
      let ok sem ref_sem =
        (Engine.run store index pattern sem).Engine.answers
        = Reference.eval tree ref_sem pattern
      in
      ok Engine.Insecure Reference.Any
      && ok (Engine.Secure 0) (Reference.Bound acc)
      && ok (Engine.Secure_path 0) (Reference.Path acc))

let test_all_paper_queries_vs_oracle () =
  (* the strongest fidelity check: every Table-1 query on a real XMark
     instance with propagated ACLs, all three semantics, vs the oracle *)
  let tree = Xmark.generate_nodes ~seed:123 2_500 in
  let rng = Prng.create 124 in
  let bools =
    Synth_acl.generate_bool tree
      ~params:{ Synth_acl.default with accessibility_ratio = 0.6 }
      rng
  in
  bools.(0) <- true;
  let store, index = build_secured tree bools in
  let acc v = bools.(v) in
  List.iter
    (fun (name, q) ->
      let pattern = Xpath.parse q in
      List.iter
        (fun (label, sem, ref_sem) ->
          let got = (Engine.run store index pattern sem).Engine.answers in
          let want = Reference.eval tree ref_sem pattern in
          check Fixtures.int_list (Printf.sprintf "%s %s" name label) want got)
        [
          ("insecure", Engine.Insecure, Reference.Any);
          ("secure", Engine.Secure 0, Reference.Bound acc);
          ("path", Engine.Secure_path 0, Reference.Path acc);
        ])
    Xmark.queries

(* --- Algorithm 1 cross-check --- *)

let test_npm_agrees_with_engine_on_match_existence () =
  let tree = Xmark.generate_nodes ~seed:9 2000 in
  let rng = Prng.create 77 in
  let bools = Synth_acl.generate_bool tree ~params:Synth_acl.default rng in
  let store, index = build_secured tree bools in
  (* single NoK subtree rooted at item, returning the root *)
  let pattern = Xpath.parse "/site/regions/africa/item[location][name][quantity]" in
  let engine = (Engine.run store index pattern (Engine.Secure 0)).Engine.answers in
  (* run Algorithm 1 directly on each item with the item sub-pattern *)
  let item_pat =
    Pattern.of_root
      (Pattern.make ~returning:true (Pattern.Tag "item")
         [
           Pattern.make (Pattern.Tag "location") [];
           Pattern.make (Pattern.Tag "name") [];
           Pattern.make (Pattern.Tag "quantity") [];
         ])
  in
  let table = Tree.tag_table tree in
  let item_tag = Option.get (Dolx_xml.Tag.find_opt table "item") in
  let africa_items =
    (* items under africa whose trunk path (site/regions/africa) is
       accessible — the part of the query Algorithm 1 does not re-check *)
    List.filter
      (fun v ->
        let africa = Tree.parent tree v in
        let regions = Tree.parent tree africa in
        Tree.tag_name tree africa = "africa"
        && bools.(africa) && bools.(regions)
        && bools.(Tree.parent tree regions))
      (Postings.to_list (Tag_index.postings index item_tag))
  in
  let npm_matches =
    List.filter
      (fun v -> Nok_match.npm_run store (Nok_match.secure 0) item_pat v <> None)
      africa_items
  in
  check Fixtures.int_list "Algorithm 1 = engine" engine npm_matches

let prop_value_queries_vs_oracle =
  (* random text values; engine with and without the value index must
     both equal the oracle *)
  Fixtures.qtest ~count:50 "value queries = oracle (with and without value index)"
    QCheck2.Gen.(quad (int_bound 100_000) (int_range 2 100) (int_range 1 9) (int_bound 3))
    (fun (seed, n, p10, qpick) ->
      let rng = Prng.create seed in
      let tree0 = Fixtures.random_tree rng n in
      (* rebuild with random short texts on leaves *)
      let b = Tree.Builder.create () in
      let words = [| "x"; "y"; "z" |] in
      let rec copy v =
        ignore (Tree.Builder.open_element b (Tree.tag_name tree0 v));
        if Tree.is_leaf tree0 v then
          Tree.Builder.add_text b words.(Prng.int rng 3);
        Tree.iter_children copy tree0 v;
        Tree.Builder.close_element b
      in
      copy Tree.root;
      let tree = Tree.Builder.finish b in
      let bools = Fixtures.random_bools rng n (float_of_int p10 /. 10.0) in
      bools.(0) <- true;
      let dol = Dol.of_bool_array bools in
      let store = Store.create ~page_size:256 tree dol in
      let index = Tag_index.build tree in
      let vindex = Dolx_index.Value_index.build tree in
      let q =
        [| "//a=\"x\""; "//b=\"y\""; "//a[b=\"z\"]"; "//c=\"x\"" |].(qpick)
      in
      let pattern = Xpath.parse q in
      let acc v = bools.(v) in
      List.for_all
        (fun (sem, rsem) ->
          let plain = (Engine.run store index pattern sem).Engine.answers in
          let seeded =
            (Engine.run ~value_index:vindex store index pattern sem).Engine.answers
          in
          let want = Reference.eval tree rsem pattern in
          plain = want && seeded = want)
        [ (Engine.Insecure, Reference.Any); (Engine.Secure 0, Reference.Bound acc) ])

(* --- full binding tuples --- *)

let test_bindings_figure2 () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 true in
  let store, index = build_secured tree bools in
  (* //e/h: one tuple (e, h) *)
  let p = Xpath.parse "//e/h" in
  check
    Alcotest.(list (list int))
    "e/h" [ [ 4; 7 ] ]
    (Engine.bindings store index p Engine.Insecure);
  (* //a//h pairs *)
  let p2 = Xpath.parse "//a//h" in
  check Alcotest.(list (list int)) "a//h" [ [ 0; 7 ] ]
    (Engine.bindings store index p2 Engine.Insecure)

let test_bindings_join_pairs () =
  (* //parlist//parlist bindings = the STD pair count *)
  let tree = Xmark.generate_nodes ~seed:55 2000 in
  let n = Tree.size tree in
  let store, index = build_secured tree (Array.make n true) in
  let p = Xpath.parse "//parlist//parlist" in
  let tuples = Engine.bindings store index p Engine.Insecure in
  let table = Tree.tag_table tree in
  let parlist = Option.get (Dolx_xml.Tag.find_opt table "parlist") in
  let nodes = Postings.to_list (Tag_index.postings index parlist) in
  let pairs = Structural_join.stack_tree_desc store ~alist:nodes ~dlist:nodes in
  check Alcotest.int "tuple count = STD pair count" (List.length pairs)
    (List.length tuples);
  (* under Cho semantics: pairs over the accessible candidate sets *)
  let bools2 = Array.init n (fun v -> v mod 3 <> 0) in
  bools2.(0) <- true;
  let store2, index2 = build_secured tree bools2 in
  let acc_nodes =
    List.filter (fun v -> bools2.(v)) (Postings.to_list (Tag_index.postings index2 parlist))
  in
  let sec_pairs =
    Structural_join.stack_tree_desc store2 ~alist:acc_nodes ~dlist:acc_nodes
  in
  let sec_tuples = Engine.bindings store2 index2 p (Engine.Secure 0) in
  check Alcotest.int "secure tuple count = secure pair count"
    (List.length sec_pairs) (List.length sec_tuples);
  (* projecting tuples onto the returning node = run's answers *)
  let answers = (Engine.run store index p Engine.Insecure).Engine.answers in
  check Fixtures.int_list "projection"
    answers
    (List.sort_uniq compare (List.map (fun t -> List.nth t 1) tuples))

let prop_bindings_project_to_answers =
  Fixtures.qtest ~count:50 "binding tuples project onto run answers"
    QCheck2.Gen.(quad (int_bound 100_000) (int_range 2 100) (int_range 1 9) (int_bound 5))
    (fun (seed, n, p10, qpick) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n (float_of_int p10 /. 10.0) in
      bools.(0) <- true;
      let store, index = build_secured tree bools in
      let q = [| "//a/b"; "//a//b"; "//a[b]/c"; "//b//c//d"; "//a/b/c"; "//a" |].(qpick) in
      let pattern = Xpath.parse q in
      List.for_all
        (fun sem ->
          let tuples = Engine.bindings store index pattern sem in
          let answers = (Engine.run store index pattern sem).Engine.answers in
          let last t = List.nth t (List.length t - 1) in
          List.sort_uniq compare (List.map last tuples) = answers
          (* every tuple is strictly increasing in preorder along the
             trunk (child/descendant steps go downward) *)
          && List.for_all
               (fun t ->
                 let rec incr_ok = function
                   | a :: (b :: _ as rest) -> a < b && incr_ok rest
                   | _ -> true
                 in
                 incr_ok t)
               tuples)
        [ Engine.Insecure; Engine.Secure 0; Engine.Secure_path 0 ])

let test_bindings_limit () =
  let tree = Xmark.generate_nodes ~seed:56 2000 in
  let n = Tree.size tree in
  let store, index = build_secured tree (Array.make n true) in
  let p = Xpath.parse "//listitem//keyword" in
  let all = Engine.bindings store index p Engine.Insecure in
  let five = Engine.bindings ~limit:5 store index p Engine.Insecure in
  Alcotest.(check bool) "has more than five" true (List.length all > 5);
  check Alcotest.int "limited" 5 (List.length five)

(* --- structural join --- *)

let test_std_pairs () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 true in
  let store, _ = build_secured tree bools in
  (* ancestors {a=0, e=4}, descendants {h=7, b=1} *)
  let pairs =
    Structural_join.stack_tree_desc store ~alist:[ 0; 4 ] ~dlist:[ 1; 7 ]
  in
  let sorted = List.sort compare pairs in
  check
    Alcotest.(list (pair int int))
    "pairs" [ (0, 1); (0, 7); (4, 7) ] sorted

let test_std_nested_candidates () =
  (* both lists can contain nested nodes *)
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 true in
  let store, _ = build_secured tree bools in
  let pairs =
    Structural_join.stack_tree_desc store ~alist:[ 0; 4; 7 ] ~dlist:[ 8; 11 ]
  in
  check Alcotest.int "all ancestor pairs" 6 (List.length pairs)

let test_secure_std_path_check () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.make 12 true in
  bools.(7) <- false (* h blocks paths from a/e down to i..l *);
  let store, _ = build_secured tree bools in
  let pairs =
    Structural_join.secure_stack_tree_desc store ~subject:0 ~alist:[ 0; 4 ]
      ~dlist:[ 5; 8 ]
  in
  (* (0,5) via e: e accessible so path a->f..: a->e->f? d=5 is f; path a..f
     passes e only. (4,5): direct child. pairs through h are pruned. *)
  let sorted = List.sort compare pairs in
  check Alcotest.(list (pair int int)) "pruned pairs" [ (0, 5); (4, 5) ] sorted

(* --- sparse class analysis and the span-hull candidate walk --- *)

module Summary_prune = Dolx_nok.Summary_prune
module Path_summary = Dolx_index.Path_summary

(* A pattern's shape without ids: a generator draws it, and [pattern_of]
   builds it with any one node returning. *)
type shape = Shape of Pattern.axis * Pattern.test * shape list

let pattern_of shape ~ret =
  let k = ref (-1) in
  let rec build (Shape (axis, test, kids)) =
    incr k;
    let returning = !k = ret in
    let kids = List.map build kids in
    Pattern.make ~axis ~returning test kids
  in
  Pattern.of_root (build shape)

let rec shape_size (Shape (_, _, kids)) =
  List.fold_left (fun n k -> n + shape_size k) 1 kids

(* Child, descendant and following-sibling edges, wildcard and tag tests
   (the last pool tag is absent from every [Dolx_fuzz.Gen.tree]),
   predicate branches of up to two children. *)
let gen_shape =
  let open QCheck2.Gen in
  let test =
    frequency
      [ (1, return Pattern.Wildcard);
        (6, map (fun t -> Pattern.Tag t) (oneofl [ "a"; "b"; "c"; "d"; "e"; "item"; "zz" ])) ]
  in
  let axis =
    frequency
      [ (4, return Pattern.Child); (4, return Pattern.Descendant);
        (1, return Pattern.Following_sibling) ]
  in
  let rec node depth ax =
    let* ax = ax and* t = test in
    let* n = if depth >= 3 then return 0 else int_bound 2 in
    let+ kids = list_repeat n (node (depth + 1) axis) in
    Shape (ax, t, kids)
  in
  node 0 (oneofl [ Pattern.Child; Pattern.Descendant ])

(* The dense analysis the sparse one replaced, kept as the reference:
   one [bool array] over every class per pattern node, built by sweeps
   over the whole summary.  Returns the per-node sets by pattern-node
   id and the pruned-class count. *)
let dense_analysis tree ps (pattern : Pattern.t) =
  let m = Path_summary.node_count ps in
  let table = Tree.tag_table tree in
  let sets = Hashtbl.create 16 and pruned = ref 0 in
  let count s = Array.fold_left (fun n b -> if b then n + 1 else n) 0 s in
  let tag_set (test : Pattern.test) =
    let s = Array.make m false in
    (match test with
    | Pattern.Wildcard -> Array.fill s 0 m true
    | Pattern.Tag name -> (
        match Dolx_xml.Tag.find_opt table name with
        | Some id ->
            List.iter (fun c -> s.(c) <- true) (Path_summary.classes_with_tag ps id)
        | None -> ()));
    s
  in
  let parent c = Path_summary.parent ps c in
  let children_of src =
    let s = Array.make m false in
    Array.iteri
      (fun c b -> if b then List.iter (fun d -> s.(d) <- true) (Path_summary.children ps c))
      src;
    s
  in
  let descendants_of src =
    let s = Array.make m false in
    for c = 1 to m - 1 do
      if src.(parent c) || s.(parent c) then s.(c) <- true
    done;
    s
  in
  let siblings_of src =
    let s = Array.make m false in
    Array.iteri
      (fun c b ->
        if b && parent c >= 0 then
          List.iter (fun d -> s.(d) <- true) (Path_summary.children ps (parent c)))
      src;
    s
  in
  let rec down (p : Pattern.pnode) parent_set =
    let base = tag_set p.Pattern.test in
    let s =
      match (parent_set, p.Pattern.axis) with
      | None, Pattern.Child ->
          let s = Array.make m false in
          if m > 0 then s.(0) <- base.(0);
          s
      | None, _ -> Array.copy base
      | Some src, axis ->
          let reach =
            match axis with
            | Pattern.Child -> children_of src
            | Pattern.Descendant -> descendants_of src
            | Pattern.Following_sibling -> siblings_of src
          in
          Array.mapi (fun c r -> r && base.(c)) reach
    in
    Hashtbl.replace sets p.Pattern.id s;
    List.iter (fun q -> down q (Some s)) p.Pattern.children;
    List.iter
      (fun (q : Pattern.pnode) ->
        let qs = Hashtbl.find sets q.Pattern.id in
        let ok = Array.make m false in
        (match q.Pattern.axis with
        | Pattern.Child ->
            for d = 1 to m - 1 do
              if qs.(d) then ok.(parent d) <- true
            done
        | Pattern.Descendant ->
            for d = m - 1 downto 1 do
              if qs.(d) || ok.(d) then ok.(parent d) <- true
            done
        | Pattern.Following_sibling ->
            Array.iteri
              (fun d b ->
                if b && parent d >= 0 then
                  List.iter (fun e -> ok.(e) <- true) (Path_summary.children ps (parent d)))
              qs);
        Array.iteri (fun c b -> if b && not ok.(c) then s.(c) <- false) s)
      p.Pattern.children;
    pruned := !pruned + (count base - count s)
  in
  down pattern.Pattern.root None;
  (sets, !pruned)

let set_list s =
  List.filter (fun c -> s.(c)) (List.init (Array.length s) Fun.id)

let gen_tree_shape =
  QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 80) gen_shape)

let prop_sparse_analysis_equals_dense =
  Fixtures.qtest ~count:300 "summary analysis: sparse sets = dense reference"
    gen_tree_shape
    (fun (seed, nodes, shape) ->
      let tree = Dolx_fuzz.Gen.tree ~seed ~nodes in
      let ps = Path_summary.build tree in
      let pattern = pattern_of shape ~ret:0 in
      let sp = Summary_prune.analyze ~table:(Tree.tag_table tree) ps pattern in
      let dense, dense_pruned = dense_analysis tree ps pattern in
      Summary_prune.pruned_classes sp = dense_pruned
      && Pattern.fold
           (fun ok (p : Pattern.pnode) ->
             let got = Summary_prune.classes sp p in
             let want = Hashtbl.find dense p.Pattern.id in
             ok
             && Summary_prune.cardinal sp p = List.length (set_list want)
             && Summary_prune.empty_for sp p = (set_list want = [])
             && Array.for_all Fun.id
                  (Array.mapi (fun c b -> Summary_prune.mem got c = b) want))
           true pattern.Pattern.root)

(* Soundness: a node the reference evaluator binds to a pattern node has
   an admitted class — with no access control, and under bound
   semantics after dropping classes whose span holds no accessible
   node. *)
let prop_analysis_admits_every_binding =
  Fixtures.qtest ~count:200 "summary analysis admits every reference binding"
    QCheck2.Gen.(pair gen_tree_shape (int_range 1 9))
    (fun ((seed, nodes, shape), p10) ->
      let tree = Dolx_fuzz.Gen.tree ~seed ~nodes in
      let ps = Path_summary.build tree in
      let table = Tree.tag_table tree in
      let rng = Prng.create seed in
      let acc = Fixtures.random_bools rng (Tree.size tree) (float_of_int p10 /. 10.0) in
      let dead ~lo ~hi =
        let rec none v = v > hi || ((not acc.(v)) && none (v + 1)) in
        none lo
      in
      List.for_all
        (fun ret ->
          let pattern = pattern_of shape ~ret in
          let target = Pattern.returning_node pattern in
          let admitted sp sem =
            let cls = Summary_prune.classes sp target in
            List.for_all
              (fun v -> Summary_prune.mem cls (Path_summary.class_of ps v))
              (Reference.eval tree sem pattern)
          in
          let any = Summary_prune.analyze ~table ps pattern in
          let bound = Summary_prune.analyze ~table ps pattern in
          ignore (Summary_prune.drop_dead_spans bound ~dead);
          admitted any Reference.Any
          && admitted bound (Reference.Bound (fun v -> acc.(v))))
        (List.init (shape_size shape) Fun.id))

(* The span-hull narrowing skips no admissible candidate: over a tag's
   postings, the class-filtered walk on the hull-narrowed slice yields
   the members and the admissible-skipped tally of the walk on the
   whole slice, gated by the runs of a store labeled at random or
   ungated. *)
let prop_hull_cursor_equals_full_walk =
  Fixtures.qtest ~count:300 "span-hull cursor = full filtered walk"
    QCheck2.Gen.(triple gen_tree_shape (int_range 0 10) bool)
    (fun ((seed, nodes, shape), p10, gated) ->
      let tree = Dolx_fuzz.Gen.tree ~seed ~nodes in
      let acc =
        Fixtures.random_bools (Prng.create seed) (Tree.size tree) (float_of_int p10 /. 10.0)
      in
      let store, index = build_secured tree acc in
      let ps = Store.path_summary store in
      let table = Tree.tag_table tree in
      let pattern = pattern_of shape ~ret:0 in
      let sp = Summary_prune.analyze ~table ps pattern in
      let mode = if gated then Nok_match.secure 0 else Nok_match.insecure in
      Pattern.fold
        (fun ok (p : Pattern.pnode) ->
          ok
          &&
          match p.Pattern.test with
          | Pattern.Wildcard -> true
          | Pattern.Tag name -> (
              match Dolx_xml.Tag.find_opt table name with
              | None -> true
              | Some tag ->
                  let classes = Summary_prune.classes sp p in
                  let walk t =
                    let w = Nok_match.walk ~classes store mode t in
                    let rec drain acc =
                      match Nok_match.next w with -1 -> List.rev acc | v -> drain (v :: acc)
                    in
                    let members = drain [] in
                    (members, w.Nok_match.w_pruned)
                  in
                  let full = Tag_index.postings index tag in
                  let lo, hi = Summary_prune.hull sp p in
                  walk full = walk (Postings.narrow full ~lo ~hi)))
        true pattern.Pattern.root)

(* A pattern root under a leading [//] counts its pruned classes like
   every other node: in r(x(a(b)), y(a)) only the x/a class has a [b]
   child, so [//a[b]] prunes the y/a class. *)
let test_summary_pruned_counts_root () =
  let tree =
    Tree.of_spec
      (Tree.El
         ( "r",
           [ Tree.El ("x", [ Tree.El ("a", [ Tree.El ("b", []) ]) ]);
             Tree.El ("y", [ Tree.El ("a", []) ]) ] ))
  in
  let store, index = build_secured tree (Array.make (Tree.size tree) true) in
  let pruned0 = Dolx_obs.Metrics.counter_value "engine.summary_pruned" in
  let r = Engine.query store index "//a[b]" Engine.Insecure in
  check Fixtures.int_list "answers" [ 2 ] r.Engine.answers;
  check Alcotest.int "summary_pruned" 1
    (Dolx_obs.Metrics.counter_value "engine.summary_pruned" - pruned0)

let suite =
  [
    Alcotest.test_case "parse simple path" `Quick test_parse_simple_path;
    Alcotest.test_case "parse predicates" `Quick test_parse_predicates;
    Alcotest.test_case "parse descendant + wildcard" `Quick test_parse_descendant_and_wildcard;
    Alcotest.test_case "parse value predicate" `Quick test_parse_value_predicate;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse Table 1 queries" `Quick test_parse_queries_table1;
    Alcotest.test_case "decompose single segment" `Quick test_decompose_single_segment;
    Alcotest.test_case "decompose join queries" `Quick test_decompose_join_queries;
    Alcotest.test_case "engine: library queries" `Quick test_engine_library_queries;
    Alcotest.test_case "engine: secure filtering" `Quick test_engine_secure_filtering;
    Alcotest.test_case "engine: path vs bound semantics" `Quick
      test_engine_path_vs_bound_semantics;
    prop_engine_vs_reference_random;
    Alcotest.test_case "secure STD path check" `Quick test_secure_std_path_check;
    Alcotest.test_case "all paper queries vs oracle" `Slow test_all_paper_queries_vs_oracle;
    Alcotest.test_case "Algorithm 1 agrees with engine" `Quick
      test_npm_agrees_with_engine_on_match_existence;
    prop_value_queries_vs_oracle;
    Alcotest.test_case "bindings: figure 2" `Quick test_bindings_figure2;
    Alcotest.test_case "bindings: join pairs" `Quick test_bindings_join_pairs;
    prop_bindings_project_to_answers;
    Alcotest.test_case "bindings: limit" `Quick test_bindings_limit;
    Alcotest.test_case "STD pairs" `Quick test_std_pairs;
    Alcotest.test_case "STD nested candidates" `Quick test_std_nested_candidates;
    prop_sparse_analysis_equals_dense;
    prop_analysis_admits_every_binding;
    prop_hull_cursor_equals_full_walk;
    Alcotest.test_case "summary_pruned counts a // root's drops" `Quick
      test_summary_pruned_counts_root;
  ]
