(** Coverage sweep: small, direct assertions for API surface the themed
    suites exercise only indirectly — error paths, pretty-printers,
    accessors, option handling. *)

module Tree = Dolx_xml.Tree
module Serializer = Dolx_xml.Serializer
module Parser = Dolx_xml.Parser
module Tree_stats = Dolx_xml.Tree_stats
module Prng = Dolx_util.Prng
module Stats = Dolx_util.Stats
module Bitset = Dolx_util.Bitset
module Varint = Dolx_util.Varint
module Int_vec = Dolx_util.Int_vec
module Subject = Dolx_policy.Subject
module Mode = Dolx_policy.Mode
module Acl = Dolx_policy.Acl
module Rule = Dolx_policy.Rule
module Labeling = Dolx_policy.Labeling
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Store = Dolx_core.Secure_store
module Secure_view = Dolx_core.Secure_view
module Nok_layout = Dolx_storage.Nok_layout
module Disk = Dolx_storage.Disk
module Pattern = Dolx_nok.Pattern
module Xpath = Dolx_nok.Xpath
module Decompose = Dolx_nok.Decompose
module Engine = Dolx_nok.Engine
module Tag_index = Dolx_index.Tag_index

let check = Alcotest.check

let test_serializer_variants () =
  let t = Fixtures.library_tree () in
  (* subtree serialization *)
  let shelf2 = 12 in
  let s = Serializer.to_string ~v:shelf2 t in
  let sub = Parser.parse s in
  check Alcotest.string "subtree only" "shelf(book(title)(author))"
    (Tree.structure_string sub);
  (* indented output still parses to the same structure *)
  let indented = Parser.parse (Serializer.to_string ~indent:true t) in
  check Alcotest.string "indent roundtrip" (Tree.structure_string t)
    (Tree.structure_string indented);
  check Alcotest.string "escape" "a &amp;&lt;&gt; b" (Serializer.escape_text "a &<> b")

let test_tree_misc () =
  let t = Fixtures.figure2_tree () in
  check Alcotest.int "fold counts nodes" 12 (Tree.fold (fun acc _ -> acc + 1) 0 t);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf t 1);
  Alcotest.(check bool) "internal" false (Tree.is_leaf t 4);
  check Alcotest.int "root depth" 0 (Tree.depth t 0);
  Alcotest.check_raises "bad node" (Invalid_argument "Tree: node out of range")
    (fun () -> ignore (Tree.tag t 99))

let test_prng_misc () =
  let rng = Prng.create 5 in
  let twin = Prng.copy rng in
  check Alcotest.int "copy replays" (Prng.int rng 1000) (Prng.int twin 1000);
  let l = [ 10; 20; 30 ] in
  Alcotest.(check bool) "choose_list member" true (List.mem (Prng.choose_list rng l) l);
  for _ = 1 to 100 do
    let g = Prng.geometric rng ~p:0.5 ~max:7 in
    Alcotest.(check bool) "geometric bounded" true (g >= 0 && g <= 7)
  done;
  Alcotest.check_raises "empty choose" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose rng [||]))

let test_stats_misc () =
  check (Alcotest.float 1e-9) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean_arr" 2.5 (Stats.mean_arr [| 2.0; 3.0 |]);
  check
    Alcotest.(list (pair int int))
    "histogram" [ (1, 2); (2, 1) ]
    (Stats.histogram [ 1; 2; 1 ]);
  check (Alcotest.float 1e-9) "ratio_int" 0.25 (Stats.ratio_int 1 4)

let test_bitset_misc () =
  let b = Bitset.of_list 5 [ 0; 3 ] in
  check Alcotest.string "render" "10010" (Bitset.to_string b);
  Alcotest.(check bool) "compare orders" true (Bitset.compare b (Bitset.full 5) <> 0);
  check Alcotest.int "compare self" 0 (Bitset.compare b (Bitset.copy b));
  Alcotest.check_raises "width mismatch" (Invalid_argument "Bitset.union: width mismatch")
    (fun () -> ignore (Bitset.union b (Bitset.create 6)))

let test_varint_errors () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative")
    (fun () -> ignore (Varint.write (Bytes.create 10) 0 (-1)))

let test_int_vec_misc () =
  let v = Int_vec.of_array [| 1; 2; 3 |] in
  Int_vec.clear v;
  Alcotest.(check bool) "cleared" true (Int_vec.is_empty v);
  Int_vec.push v 9;
  let seen = ref [] in
  Int_vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check Alcotest.(list (pair int int)) "iteri" [ (0, 9) ] !seen

let test_registry_errors () =
  let subjects = Subject.create () in
  ignore (Subject.add_user subjects "x");
  Alcotest.check_raises "dup subject" (Invalid_argument "Subject.add: duplicate x")
    (fun () -> ignore (Subject.add_user subjects "x"));
  let u = Option.get (Subject.find_opt subjects "x") in
  Alcotest.check_raises "membership in non-group"
    (Invalid_argument "Subject.add_membership: not a group") (fun () ->
      Subject.add_membership subjects ~child:u ~group:u);
  let modes = Mode.create () in
  ignore (Mode.add modes "m");
  Alcotest.check_raises "dup mode" (Invalid_argument "Mode.add: duplicate m")
    (fun () -> ignore (Mode.add modes "m"))

let test_acl_empty_full () =
  let store = Acl.create ~width:3 in
  Alcotest.(check bool) "empty denies" false (Acl.grants store (Acl.empty store) 1);
  Alcotest.(check bool) "full grants" true (Acl.grants store (Acl.full store) 2);
  check Alcotest.int "width" 3 (Acl.width store)

let test_pp_smoke () =
  (* the pretty-printers should render something non-empty and not raise *)
  let tree = Fixtures.figure2_tree () in
  let dol = Dol.of_bool_array (Array.make 12 true) in
  let non_empty s = Alcotest.(check bool) s true (String.length s > 0) in
  non_empty (Fmt.str "%a" Dol.pp dol);
  non_empty (Fmt.str "%a" Tree_stats.pp (Tree_stats.compute tree));
  let p = Xpath.parse "//a[b]/c" in
  non_empty (Fmt.str "%a" Pattern.pp p);
  non_empty (Fmt.str "%a" Decompose.pp (Decompose.plan p));
  let subjects = Subject.create () in
  let s = Subject.add_user subjects "s" in
  let modes = Mode.create () in
  let m = Mode.add modes "read" in
  non_empty (Fmt.str "%a" (Rule.pp subjects modes) (Rule.grant ~subject:s ~mode:m 0));
  let store = Store.create tree dol in
  non_empty (Fmt.str "%a" Store.pp_io (Store.io_stats store))

let test_store_create_mismatch () =
  let tree = Fixtures.figure2_tree () in
  let dol = Dol.of_bool_array (Array.make 5 true) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Secure_store.create: tree / DOL size mismatch") (fun () ->
      ignore (Store.create tree dol))

let test_engine_count_and_parse_opt () =
  let tree = Fixtures.library_tree () in
  let dol = Dol.of_bool_array (Array.make (Tree.size tree) true) in
  let store = Store.create tree dol in
  let index = Tag_index.build tree in
  check Alcotest.int "count" 4 (Engine.count store index "//book" (Engine.Secure 0));
  Alcotest.(check bool) "parse_opt ok" true (Xpath.parse_opt "//a" <> None);
  Alcotest.(check bool) "parse_opt bad" true (Xpath.parse_opt "nope" = None)

let test_layout_accessors () =
  let tree = Fixtures.figure2_tree () in
  let dol = Dol.of_bool_array (Array.make 12 true) in
  let store = Store.create ~page_size:64 ~fill:0.5 tree dol in
  let layout = Store.layout store in
  check Alcotest.int "node count" 12 (Nok_layout.node_count layout);
  Alcotest.(check bool) "several pages" true (Nok_layout.page_count layout > 1);
  Alcotest.(check bool) "physical page exists" true
    (Nok_layout.physical_page layout 0 >= 0);
  Alcotest.(check bool) "storage bytes" true (Nok_layout.storage_bytes layout > 0);
  Alcotest.check_raises "bad header index" (Invalid_argument "Nok_layout.header")
    (fun () -> ignore (Nok_layout.header layout 999))

let test_disk_errors () =
  let d = Disk.create ~page_size:64 () in
  Alcotest.check_raises "bad page id"
    (Invalid_argument "Disk.read: page 0 out of range (page count 0)")
    (fun () -> ignore (Disk.read d 0))

let test_labeling_ratio () =
  let lab = Labeling.of_bool_array [| true; true; false; false |] in
  check (Alcotest.float 1e-9) "ratio" 0.5 (Labeling.accessibility_ratio lab ~subject:0)

let test_view_count_lift () =
  let tree, dol =
    ( Fixtures.figure2_tree (),
      Dol.of_bool_array
        [| true; false; true; false; true; false; true; false; true; false; true; false |] )
  in
  check Alcotest.int "lift counts all accessible" 6
    (Secure_view.visible_count ~semantics:Secure_view.Lift_children tree dol ~subject:0)

let test_codebook_bytes () =
  let cb = Codebook.create ~width:16 in
  ignore (Codebook.intern cb (Bitset.full 16));
  ignore (Codebook.intern cb (Bitset.create 16));
  check Alcotest.int "2 entries x 2 bytes" 4 (Codebook.storage_bytes cb)

let test_pattern_helpers () =
  let p = Xpath.parse "//a[b]/c" in
  Alcotest.(check bool) "single NoK" true (Pattern.is_single_nok p);
  let pj = Xpath.parse "//a//c" in
  Alcotest.(check bool) "not single NoK" false (Pattern.is_single_nok pj);
  let r = Pattern.returning_node p in
  Alcotest.(check bool) "returning is c" true (r.Pattern.test = Pattern.Tag "c")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let library_store () =
  let tree = Fixtures.library_tree () in
  let dol = Dol.of_bool_array (Array.make (Tree.size tree) true) in
  (Store.create tree dol, Tag_index.build tree)

let test_engine_explain () =
  let store, index = library_store () in
  let s = Engine.explain store index (Xpath.parse "//shelf//title[book]") in
  Alcotest.(check bool) "mentions join" true (contains s "structural join");
  Alcotest.(check bool) "mentions candidates" true (contains s "index candidates")

(* The strategy line names the plan the stream actually runs: the
   summary path performs no joins; a following-sibling trunk cannot take
   it and stages its segments through a structural join. *)
let test_explain_strategy_matches_run () =
  let store, index = library_store () in
  List.iter
    (fun (q, want) ->
      let pattern = Xpath.parse q in
      let strategy =
        List.hd (String.split_on_char '\n' (Engine.explain store index pattern))
      in
      let st = Engine.stream store index pattern Engine.Insecure in
      ignore (Engine.stream_collect st);
      let ran =
        if Engine.stream_joins st = 0 then "summary path" else "segments + joins"
      in
      Alcotest.(check bool) (q ^ ": explains " ^ want) true (contains strategy want);
      Alcotest.(check string) (q ^ ": runs the explained plan") want ran)
    [
      ("//shelf//title[book]", "summary path");
      ("//shelf//book/following-sibling::box", "segments + joins");
    ]

let test_insert_subtree_errors () =
  let t = Fixtures.figure2_tree () in
  let sub = Tree.of_spec (Tree.El ("x", [])) in
  Alcotest.check_raises "bad sibling"
    (Invalid_argument "Tree.insert_subtree: after is not a child of parent")
    (fun () -> ignore (Tree.insert_subtree t ~parent:4 ~after:1 sub))

(* The summary-path plan names the steps it decides without a page:
   the plain ones, and none when every step has a predicate. *)
let test_explain_names_resident_steps () =
  let store, index = library_store () in
  let line q =
    List.find_opt
      (fun l -> contains l "decided without a page")
      (String.split_on_char '\n' (Engine.explain store index (Xpath.parse q)))
  in
  (match line "//shelf//book[title]" with
  | Some l ->
      Alcotest.(check bool) ("names the plain step: " ^ l) true (contains l "1 shelf");
      Alcotest.(check bool) ("skips the predicate step: " ^ l) false (contains l "book")
  | None -> Alcotest.fail "no resident-step line");
  (match line "//book[title]" with
  | Some l -> Alcotest.(check bool) ("none: " ^ l) true (contains l ": none")
  | None -> Alcotest.fail "no resident-step line");
  Alcotest.(check bool) "segment plan: no line" true
    (line "//shelf//book/following-sibling::box" = None)

let suite =
  [
    Alcotest.test_case "serializer variants" `Quick test_serializer_variants;
    Alcotest.test_case "tree misc" `Quick test_tree_misc;
    Alcotest.test_case "prng misc" `Quick test_prng_misc;
    Alcotest.test_case "stats misc" `Quick test_stats_misc;
    Alcotest.test_case "bitset misc" `Quick test_bitset_misc;
    Alcotest.test_case "varint errors" `Quick test_varint_errors;
    Alcotest.test_case "int_vec misc" `Quick test_int_vec_misc;
    Alcotest.test_case "registry errors" `Quick test_registry_errors;
    Alcotest.test_case "acl empty/full" `Quick test_acl_empty_full;
    Alcotest.test_case "pretty-printers" `Quick test_pp_smoke;
    Alcotest.test_case "store size mismatch" `Quick test_store_create_mismatch;
    Alcotest.test_case "engine count + parse_opt" `Quick test_engine_count_and_parse_opt;
    Alcotest.test_case "layout accessors" `Quick test_layout_accessors;
    Alcotest.test_case "disk errors" `Quick test_disk_errors;
    Alcotest.test_case "labeling ratio" `Quick test_labeling_ratio;
    Alcotest.test_case "view count (lift)" `Quick test_view_count_lift;
    Alcotest.test_case "codebook bytes" `Quick test_codebook_bytes;
    Alcotest.test_case "pattern helpers" `Quick test_pattern_helpers;
    Alcotest.test_case "engine explain" `Quick test_engine_explain;
    Alcotest.test_case "explain strategy matches run" `Quick
      test_explain_strategy_matches_run;
    Alcotest.test_case "insert subtree errors" `Quick test_insert_subtree_errors;
    Alcotest.test_case "explain names the steps decided without a page" `Quick
      test_explain_names_resident_steps;
  ]
