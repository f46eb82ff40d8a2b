(** Tests for the extension features: multi-mode DOL, the
    following-sibling axis, and the stack-cached ε-STD. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Multimode = Dolx_core.Multimode
module Store = Dolx_core.Secure_store
module Structural_join = Dolx_nok.Structural_join
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Pattern = Dolx_nok.Pattern
module Tag_index = Dolx_index.Tag_index
module Labeling = Dolx_policy.Labeling
module Subject = Dolx_policy.Subject
module Mode = Dolx_policy.Mode
module Rule = Dolx_policy.Rule
module Propagate = Dolx_policy.Propagate
module Prng = Dolx_util.Prng
module Livelink = Dolx_workload.Livelink

let check = Alcotest.check

(* --- multi-mode DOL --- *)

let multimode_setup () =
  let tree = Fixtures.figure2_tree () in
  let subjects = Subject.create () in
  let alice = Subject.add_user subjects "alice" in
  let bob = Subject.add_user subjects "bob" in
  let modes, read, write = Mode.read_write () in
  let rules =
    [
      Rule.grant ~subject:alice ~mode:read 0;
      Rule.grant ~subject:alice ~mode:write 4;
      Rule.grant ~subject:bob ~mode:read 7;
    ]
  in
  let labelings = Propagate.compile_all_modes tree ~subjects ~modes rules in
  (tree, labelings, alice, bob, read, write)

let test_multimode_agrees_with_per_mode () =
  let _, labelings, alice, bob, read, write = multimode_setup () in
  let combined = Multimode.combine labelings in
  let per_mode = Array.map Dol.of_labeling labelings in
  for v = 0 to 11 do
    List.iter
      (fun (s, m) ->
        Alcotest.(check bool)
          (Printf.sprintf "subject %d mode %d node %d" s m v)
          (Dol.accessible per_mode.(m) ~subject:s v)
          (Multimode.accessible combined ~subject:s ~mode:m v))
      [ (alice, read); (alice, write); (bob, read); (bob, write) ]
  done

let test_multimode_bit_layout () =
  let layout = { Multimode.n_subjects = 5; n_modes = 3 } in
  check Alcotest.int "bit" 7 (Multimode.bit layout ~subject:2 ~mode:1);
  Alcotest.check_raises "bad mode" (Invalid_argument "Multimode: mode") (fun () ->
      ignore (Multimode.bit layout ~subject:0 ~mode:3))

let test_multimode_exploits_mode_correlation () =
  (* On correlated LiveLink modes, the combined codebook must be far
     smaller than the sum of per-mode codebooks (shared structure), and
     combined transitions no more than the sum of per-mode transitions. *)
  let ll =
    Livelink.generate
      ~config:
        { Livelink.default_config with seed = 8; target_nodes = 5000;
          n_departments = 6; users_per_department = 8; n_modes = 5 }
      ()
  in
  let combined = Multimode.combine ll.Livelink.labelings in
  let _, dol = combined in
  let per_mode = Array.map Dol.of_labeling ll.Livelink.labelings in
  let sum_transitions =
    Array.fold_left (fun acc d -> acc + Dol.transition_count d) 0 per_mode
  in
  Alcotest.(check bool) "combined transitions below per-mode sum" true
    (Dol.transition_count dol <= sum_transitions);
  let sum_entries =
    Array.fold_left (fun acc d -> acc + Codebook.count (Dol.codebook d)) 0 per_mode
  in
  Alcotest.(check bool)
    (Printf.sprintf "codebook %d below per-mode naive product (sum %d)"
       (Codebook.count (Dol.codebook dol)) sum_entries)
    true
    (Codebook.count (Dol.codebook dol) < sum_entries * 4);
  Alcotest.(check bool) "combined bytes comparable" true
    (Multimode.combined_storage_bytes combined
     < 3 * Multimode.per_mode_storage_bytes ll.Livelink.labelings)

(* --- following-sibling axis --- *)

let test_fs_parse () =
  let p = Xpath.parse "/library/shelf/book/following-sibling::book" in
  let trunk = Pattern.trunk p in
  check Alcotest.int "trunk length" 4 (List.length trunk);
  let last = List.nth trunk 3 in
  Alcotest.(check bool) "fs axis" true (last.Pattern.axis = Pattern.Following_sibling);
  (match Xpath.parse "/following-sibling::x" with
  | exception Xpath.Parse_error _ -> ()
  | _ -> Alcotest.fail "leading following-sibling must be rejected")

let test_fs_engine_vs_reference () =
  let tree = Fixtures.library_tree () in
  let n = Tree.size tree in
  let all = Array.make n true in
  let dol = Dol.of_bool_array all in
  let store = Store.create tree dol in
  let index = Tag_index.build tree in
  List.iter
    (fun q ->
      let pattern = Xpath.parse q in
      let got = (Engine.run store index pattern Engine.Insecure).Engine.answers in
      let want = Reference.eval tree Reference.Any pattern in
      check Fixtures.int_list q want got)
    [
      "/library/shelf/book/following-sibling::book";
      "/library/shelf/book/following-sibling::box";
      "//book[following-sibling::book]";
      "//shelf/book/following-sibling::book/title";
      "/library/shelf/following-sibling::shelf/book";
    ]

let prop_fs_engine_vs_reference =
  Fixtures.qtest ~count:60 "following-sibling: engine = oracle on random data"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 100) (int_bound 3))
    (fun (seed, n, qpick) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n 0.6 in
      bools.(0) <- true;
      let dol = Dol.of_bool_array bools in
      let store = Store.create tree dol in
      let index = Tag_index.build tree in
      let q =
        [| "//a/following-sibling::b"; "//b[following-sibling::a]";
           "//a/b/following-sibling::c"; "//a/following-sibling::*" |].(qpick)
      in
      let pattern = Xpath.parse q in
      let acc v = bools.(v) in
      (Engine.run store index pattern Engine.Insecure).Engine.answers
      = Reference.eval tree Reference.Any pattern
      && (Engine.run store index pattern (Engine.Secure 0)).Engine.answers
         = Reference.eval tree (Reference.Bound acc) pattern)

(* --- ε-STD variants --- *)

let prop_secure_std_variants_agree =
  Fixtures.qtest ~count:80 "stack-cached ε-STD = naive ε-STD"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 150) (int_range 1 9))
    (fun (seed, n, p10) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n (float_of_int p10 /. 10.0) in
      let dol = Dol.of_bool_array bools in
      let store = Store.create tree dol in
      (* candidate lists: all "a" nodes / all "b" nodes *)
      let nodes_with tag =
        List.filter (fun v -> Tree.tag_name tree v = tag) (List.init n Fun.id)
      in
      let alist = nodes_with "a" and dlist = nodes_with "b" in
      let naive =
        Structural_join.secure_stack_tree_desc_naive store ~subject:0 ~alist ~dlist
      in
      let unmemo =
        Structural_join.secure_stack_tree_desc_unmemoized store ~subject:0 ~alist
          ~dlist
      in
      let stacked =
        Structural_join.secure_stack_tree_desc store ~subject:0 ~alist ~dlist
      in
      List.sort compare naive = List.sort compare stacked
      && List.sort compare naive = List.sort compare unmemo)

let test_stacked_std_fewer_checks () =
  (* nested ancestors sharing long paths: stack caching must check far
     fewer nodes than re-walking every pair.  The run index is off: with
     it on, an all-accessible document puts every connecting path inside
     one run, and no variant checks a node at all. *)
  let rng = Prng.create 1234 in
  let tree = Fixtures.random_tree rng 3000 in
  let n = Tree.size tree in
  let bools = Array.make n true in
  let dol = Dol.of_bool_array bools in
  let nodes_with tag =
    List.filter (fun v -> Tree.tag_name tree v = tag) (List.init n Fun.id)
  in
  let alist = nodes_with "a" and dlist = nodes_with "b" in
  (* measure via fresh stores to isolate counters *)
  let checks join =
    let store = Store.create ~run_index:false tree dol in
    ignore (join store ~subject:0 ~alist ~dlist);
    (Store.io_stats store).Store.access_checks
  in
  let naive_checks = checks Structural_join.secure_stack_tree_desc_naive in
  let unmemo_checks = checks Structural_join.secure_stack_tree_desc_unmemoized in
  let stacked_checks = checks Structural_join.secure_stack_tree_desc in
  Alcotest.(check bool)
    (Printf.sprintf "stacked (%d) < unmemoized (%d)" stacked_checks unmemo_checks)
    true
    (stacked_checks < unmemo_checks);
  Alcotest.(check bool)
    (Printf.sprintf "stacked (%d) <= naive (%d)" stacked_checks naive_checks)
    true
    (stacked_checks <= naive_checks)

let suite =
  [
    Alcotest.test_case "multimode agrees with per-mode DOLs" `Quick
      test_multimode_agrees_with_per_mode;
    Alcotest.test_case "multimode bit layout" `Quick test_multimode_bit_layout;
    Alcotest.test_case "multimode exploits correlation" `Quick
      test_multimode_exploits_mode_correlation;
    Alcotest.test_case "following-sibling: parse" `Quick test_fs_parse;
    Alcotest.test_case "following-sibling: engine vs oracle" `Quick
      test_fs_engine_vs_reference;
    prop_fs_engine_vs_reference;
    prop_secure_std_variants_agree;
    Alcotest.test_case "stacked ε-STD does fewer checks" `Quick
      test_stacked_std_fewer_checks;
  ]
