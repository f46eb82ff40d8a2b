(* The fuzzing subsystem's own tests: generator determinism, oracle
   agreement with the independent test oracle, shrinker soundness
   against the planted bugs, and corpus-seed replay. *)

module Tree = Dolx_xml.Tree
module Xpath = Dolx_nok.Xpath
module Propagate = Dolx_policy.Propagate
module Labeling = Dolx_policy.Labeling
module Store = Dolx_core.Secure_store
module Engine = Dolx_nok.Engine
module Nok_match = Dolx_nok.Nok_match
module Prng = Dolx_util.Prng
module Gen = Dolx_fuzz.Gen
module Oracle = Dolx_fuzz.Oracle
module Diff = Dolx_fuzz.Diff

let small seed =
  {
    Gen.seed;
    nodes = 25;
    n_users = 2;
    n_groups = 1;
    n_rules = 5;
    n_queries = 2;
    trace_len = 4;
    rule_mask = -1;
  }

(* --- generator determinism --- *)

let test_deterministic () =
  for seed = 1 to 15 do
    let p = Gen.params_of_seed seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d regenerates identically" seed)
      (Gen.fingerprint (Gen.case p))
      (Gen.fingerprint (Gen.case p));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d repro line round-trips" seed)
      true
      (Diff.parse_repro (Diff.repro_line p) = Some p)
  done

let test_prefix_stable () =
  for seed = 1 to 10 do
    let p = small seed in
    let c = Gen.case p in
    let c' = Gen.case { p with Gen.n_rules = p.Gen.n_rules - 1 } in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: tree unchanged by dropping a rule" seed)
      (Tree.structure_string c.Gen.tree)
      (Tree.structure_string c'.Gen.tree);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: surviving rules are the same prefix" seed)
      true
      (c'.Gen.rules = List.filteri (fun i _ -> i < p.Gen.n_rules - 1) c.Gen.rules)
  done

(* --- oracle vs the test suite's independent oracle (reference.ml) --- *)

let to_ref = function
  | Oracle.Any -> Reference.Any
  | Oracle.Bound f -> Reference.Bound f
  | Oracle.Path f -> Reference.Path f

let test_oracle_vs_reference () =
  let docs =
    [
      ( Fixtures.library_tree (),
        [
          "//book"; "//book[author=\"codd\"]/title"; "//shelf//title";
          "/library/shelf"; "//shelf/box/following-sibling::*"; "//*";
        ] );
      (Fixtures.figure2_tree (), [ "//e/h"; "//h/*"; "/a/e//k"; "//e[f]//j" ]);
    ]
  in
  List.iter
    (fun (tree, queries) ->
      let rng = Prng.create 42 in
      List.iter
        (fun src ->
          let pat = Xpath.parse src in
          let acc = Fixtures.random_bools rng (Tree.size tree) 0.7 in
          let pred v = acc.(v) in
          List.iter
            (fun sem ->
              Alcotest.(check Fixtures.int_list)
                (src ^ " agrees with reference")
                (Reference.eval tree (to_ref sem) pat)
                (Oracle.eval tree sem pat))
            [ Oracle.Any; Oracle.Bound pred; Oracle.Path pred ])
        queries)
    docs

let test_mso_vs_propagate () =
  for seed = 1 to 10 do
    let c = Gen.case (small seed) in
    let want =
      Oracle.mso_users c.Gen.tree ~subjects:c.Gen.subjects ~mode:c.Gen.mode
        ~default:false c.Gen.rules
    in
    let lab =
      Propagate.compile c.Gen.tree ~subjects:c.Gen.subjects ~mode:c.Gen.mode
        ~default:Propagate.Closed c.Gen.rules
    in
    let ulab, _ = Labeling.materialize_users lab ~registry:c.Gen.subjects in
    Array.iteri
      (fun u row ->
        Array.iteri
          (fun v want ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d u=%d v=%d" seed u v)
              want
              (Labeling.accessible ulab ~subject:u v))
          row)
      want
  done

(* --- whole-stack agreement on small cases (all lattice points) --- *)

let test_clean_cases () =
  for seed = 1 to 6 do
    match Diff.check_all (small seed) with
    | None -> ()
    | Some m -> Alcotest.fail (Diff.describe m)
  done

(* --- shrinker soundness against the planted bugs --- *)

let with_planted bug f =
  bug := true;
  Fun.protect ~finally:(fun () -> bug := false) f

let catch_and_shrink name bug =
  with_planted bug (fun () ->
      let start = { (small 0) with Gen.nodes = 60; n_rules = 8 } in
      let rec hunt seed =
        if seed > 300 then Alcotest.fail (name ^ ": planted bug not caught")
        else
          match Diff.check_params Diff.base_config { start with Gen.seed } with
          | Some m -> m
          | None -> hunt (seed + 1)
      in
      let m = hunt 1 in
      let shrunk, _ = Diff.shrink m.Diff.config m.Diff.params in
      Alcotest.(check bool)
        (name ^ ": shrunk case still fails")
        true
        (Diff.check_params m.Diff.config shrunk <> None);
      if shrunk.Gen.nodes > 20 || Gen.effective_rules shrunk > 4 then
        Alcotest.fail
          (Printf.sprintf "%s: shrink stalled at nodes=%d rules=%d" name
             shrunk.Gen.nodes (Gen.effective_rules shrunk)));
  (* disarmed again: the very same parameters must now pass *)
  Alcotest.(check bool)
    (name ^ ": clean stack passes after disarming")
    true
    (Diff.check_params Diff.base_config { (small 1) with Gen.nodes = 60; n_rules = 8 }
    = None)

let test_shrink_access_bug () = catch_and_shrink "access" Store.planted_bug

let test_shrink_prune_bug () = catch_and_shrink "prune" Nok_match.planted_bug

(* --- corpus replay: every committed seed must stay green --- *)

let test_corpus_replay () =
  let dir = "corpus" in
  let seeds =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seed")
  in
  Alcotest.(check bool) "corpus has seeds" true (seeds <> []);
  List.iter
    (fun f ->
      match Diff.replay_file (Filename.concat dir f) with
      | [] -> ()
      | (line, report) :: _ ->
          Alcotest.fail (Printf.sprintf "%s:%d\n%s" f line report))
    seeds

let suite =
  [
    Alcotest.test_case "generator is deterministic" `Quick test_deterministic;
    Alcotest.test_case "sub-seeding is prefix-stable" `Quick test_prefix_stable;
    Alcotest.test_case "oracle eval matches reference.ml" `Quick test_oracle_vs_reference;
    Alcotest.test_case "oracle MSO matches Propagate" `Quick test_mso_vs_propagate;
    Alcotest.test_case "clean cases pass the whole lattice" `Quick test_clean_cases;
    Alcotest.test_case "planted access bug caught and shrunk" `Quick test_shrink_access_bug;
    Alcotest.test_case "planted prune bug caught and shrunk" `Quick test_shrink_prune_bug;
    Alcotest.test_case "corpus seeds replay clean" `Quick test_corpus_replay;
  ]
