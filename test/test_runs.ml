(** Access-run index: equivalence with the DOL oracle, lifecycle under
    updates (generation staleness, per-epoch tables, carry-forward),
    residency, range-query helpers, and end-to-end answer preservation —
    sequential, quarantined, and on the multicore executor. *)

module Tree = Dolx_xml.Tree
module Prng = Dolx_util.Prng
module Bitset = Dolx_util.Bitset
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Access_runs = Dolx_core.Access_runs
module Update = Dolx_core.Update
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Postings = Dolx_index.Postings
module Engine = Dolx_nok.Engine
module Decompose = Dolx_nok.Decompose
module Nok_match = Dolx_nok.Nok_match
module Pattern = Dolx_nok.Pattern
module Summary_prune = Dolx_nok.Summary_prune
module Serve = Dolx_serve.Serve
module Metrics = Dolx_obs.Metrics
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

(* Multi-subject DOL over a random XMark document. *)
let make_dol ?(nodes = 1200) ?(subjects = 4) seed =
  let tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects:subjects ()
  in
  (tree, Dol.of_labeling labeling)

(* --- run-index verdicts = DOL oracle --- *)

let prop_runs_match_dol =
  Fixtures.qtest ~count:40 "runs = Dol.accessible (random policies)"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 5))
    (fun (seed, subjects) ->
      let _, dol = make_dol ~nodes:600 ~subjects seed in
      let n = Dol.n_nodes dol in
      let ri = Access_runs.create dol in
      let cu = Access_runs.cursor () in
      for s = 0 to subjects - 1 do
        let w = Access_runs.walk (Access_runs.runs ri ~subject:s) in
        for v = 0 to n - 1 do
          let want = Dol.accessible dol ~subject:s v in
          if Access_runs.mem w v <> want then
            QCheck2.Test.fail_reportf "mem: subject %d node %d" s v;
          if Access_runs.mem (Access_runs.walk_for ri cu ~dol ~subject:s) v <> want then
            QCheck2.Test.fail_reportf "cursor: subject %d node %d" s v
        done
      done;
      true)

(* Per-node verdict read from the codebook entry's bit-vector, bypassing
   the decoded per-subject slices [Codebook.grants] reads. *)
let entry_grants dol ~subject v =
  Bitset.get (Codebook.get (Dol.codebook dol) (Dol.code_at dol v)) subject

(* The maximal runs of [want] over [0, n). *)
let oracle_runs n want =
  let acc = ref [] and v = ref 0 in
  while !v < n do
    if want !v then begin
      let lo = !v in
      while !v < n && want !v do incr v done;
      acc := (lo, !v - 1) :: !acc
    end
    else incr v
  done;
  List.rev !acc

(* Random quarantine intervals that overlap, abut, touch preorders 0 and
   [n - 1], and cover whole runs of some subject. *)
let random_deny rng dol ~subjects =
  let n = Dol.n_nodes dol in
  let clamp v = max 0 (min (n - 1) v) in
  let last = ref (0, 0) in
  List.init (Prng.int rng 6) (fun _ ->
      let len = Prng.int rng 40 in
      let lo, hi =
        match Prng.int rng 6 with
        | 0 -> (0, len)
        | 1 -> (n - 1 - len, n - 1)
        | 2 -> (snd !last + 1, snd !last + 1 + len)
        | 3 -> (fst !last + (len / 2), snd !last + len)
        | 4 ->
            let s = Prng.int rng subjects in
            let runs = oracle_runs n (entry_grants dol ~subject:s) in
            if runs = [] then (0, 0)
            else List.nth runs (Prng.int rng (List.length runs))
        | _ ->
            let a = Prng.int rng n in
            (a, a + len)
      in
      last := (clamp lo, clamp hi);
      !last)

(* Exact per-node [mem] plus a run count equal to the oracle's maximal
   run count forces the built runs to be exactly the maximal runs, hence
   disjoint and maximal. *)
let check_runs_against r ~n ~want ~what =
  let runs = oracle_runs n want in
  let w = Access_runs.walk r in
  for v = 0 to n - 1 do
    if Access_runs.mem w v <> want v then
      QCheck2.Test.fail_reportf "%s: mem node %d" what v
  done;
  if Access_runs.run_count r <> List.length runs then
    QCheck2.Test.fail_reportf "%s: %d runs, oracle has %d maximal runs" what
      (Access_runs.run_count r) (List.length runs);
  let covered = List.fold_left (fun a (lo, hi) -> a + hi - lo + 1) 0 runs in
  if Access_runs.covered r <> covered then
    QCheck2.Test.fail_reportf "%s: covered %d, oracle %d" what
      (Access_runs.covered r) covered;
  List.iter
    (fun (lo, hi) ->
      if not (Access_runs.span_inside w ~lo ~hi) then
        QCheck2.Test.fail_reportf "%s: run [%d,%d] split" what lo hi;
      (* the run's bounds: it starts at [lo], and past its end the next
         accessible node lies beyond [hi + 1] *)
      if Access_runs.next_accessible w lo <> lo
         || (hi < n - 1 && Access_runs.next_accessible w (hi + 1) <= hi + 1)
         || (hi = n - 1 && not (Access_runs.mem w max_int))
      then QCheck2.Test.fail_reportf "%s: run [%d,%d] bounds" what lo hi)
    runs

let prop_runs_minus_deny =
  Fixtures.qtest ~count:60 "runs = oracle minus random deny intervals"
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 4) (int_range 0 10_000))
    (fun (seed, subjects, deny_seed) ->
      let _, dol = make_dol ~nodes:600 ~subjects seed in
      let n = Dol.n_nodes dol in
      let deny = random_deny (Prng.create deny_seed) dol ~subjects in
      let denied = Array.make n false in
      List.iter
        (fun (lo, hi) -> for v = lo to hi do denied.(v) <- true done)
        deny;
      let ri = Access_runs.create ~deny dol in
      for s = 0 to subjects - 1 do
        check_runs_against (Access_runs.runs ri ~subject:s) ~n
          ~want:(fun v -> entry_grants dol ~subject:s v && not denied.(v))
          ~what:(Printf.sprintf "subject %d" s)
      done;
      true)

let prop_dol_cursor_matches_code_at =
  Fixtures.qtest ~count:50 "Dol cursor = code_at (any access pattern)"
    QCheck2.Gen.(pair (int_range 0 10_000) (list_size (return 200) (int_range 0 599)))
    (fun (seed, probes) ->
      let _, dol = make_dol ~nodes:600 ~subjects:3 seed in
      let n = Dol.n_nodes dol in
      let cu = Dol.cursor dol in
      List.for_all
        (fun v ->
          let v = v mod n in
          Dol.code_at_cur dol cu v = Dol.code_at dol v)
        probes)

(* --- range-query helpers vs brute force --- *)

let test_range_helpers () =
  let _, dol = make_dol ~nodes:900 ~subjects:3 3 in
  let n = Dol.n_nodes dol in
  let ri = Access_runs.create dol in
  let rng = Prng.create 99 in
  for s = 0 to 2 do
    let w = Access_runs.walk (Access_runs.runs ri ~subject:s) in
    let acc v = Dol.accessible dol ~subject:s v in
    (* next_accessible: the next accessible node; and the end of its run,
       the first node past it that [mem] denies, with every node between
       inside one run *)
    for _ = 1 to 200 do
      let v = Prng.int rng n in
      let rec first p u = if u >= n then max_int else if p u then u else first p (u + 1) in
      let lo = first acc v in
      let hi = if lo = max_int then max_int else first (fun u -> not (acc u)) lo in
      if Access_runs.next_accessible w v <> lo then
        Alcotest.failf "next_accessible s=%d v=%d" s v;
      if lo <> max_int
         && (not (Access_runs.span_inside w ~lo ~hi:(min hi n - 1))
            || Access_runs.mem w (if hi = max_int then max_int else hi) = (hi < n))
      then Alcotest.failf "run end s=%d v=%d" s v
    done;
    (* span_inside = all nodes accessible *)
    for _ = 1 to 200 do
      let a = Prng.int rng n and b = Prng.int rng n in
      let lo = min a b and hi = max a b in
      let brute = ref true in
      for v = lo to hi do
        if not (acc v) then brute := false
      done;
      if Access_runs.span_inside w ~lo ~hi <> !brute then
        Alcotest.failf "span_inside s=%d [%d,%d]" s lo hi
    done;
    check Alcotest.bool "empty span" true (Access_runs.span_inside w ~lo:5 ~hi:4)
  done

(* --- coverage statistics --- *)

let test_run_stats () =
  let _, dol = make_dol ~nodes:800 ~subjects:2 11 in
  let n = Dol.n_nodes dol in
  let ri = Access_runs.create dol in
  let r = Access_runs.runs ri ~subject:0 in
  let truth = ref 0 in
  for v = 0 to n - 1 do
    if Dol.accessible dol ~subject:0 v then incr truth
  done;
  check Alcotest.int "covered = accessible population" !truth
    (Access_runs.covered r);
  check (Alcotest.float 1e-9) "fraction"
    (float_of_int !truth /. float_of_int n)
    (Access_runs.accessible_fraction r);
  check Alcotest.bool "bytes positive" true (Access_runs.bytes r > 0)

(* --- staleness: updates bump the generation, runs rebuild --- *)

let prop_rebuild_after_updates =
  Fixtures.qtest ~count:30 "runs track randomized update sequences"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let tree, dol = make_dol ~nodes:500 ~subjects:3 seed in
      let n = Dol.n_nodes dol in
      let ri = Access_runs.create dol in
      let rng = Prng.create (seed + 17) in
      for round = 1 to 8 do
        (* random accessibility update: node- or subtree-granularity *)
        let s = Prng.int rng 3 and v = Prng.int rng n in
        let grant = Prng.bool rng ~p:0.5 in
        if Prng.bool rng ~p:0.5 then
          ignore (Update.dol_set_node dol ~subject:s ~grant v)
        else Update.dol_set_subtree dol tree ~subject:s ~grant v;
        (* stale generation must force a rebuild that matches the oracle *)
        let w = Access_runs.walk (Access_runs.runs ri ~subject:s) in
        for u = 0 to n - 1 do
          if Access_runs.mem w u <> Dol.accessible dol ~subject:s u then
            QCheck2.Test.fail_reportf "round %d subject %d node %d" round s u
        done
      done;
      true)

(* --- stale columns: codes interned after every column was decoded --- *)

let test_stale_columns () =
  (* 12 subjects: 2^12 possible ACLs, so subtree flips mint new codes *)
  let subjects = 12 in
  let tree, dol = make_dol ~nodes:1500 ~subjects 61 in
  let n = Dol.n_nodes dol in
  let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
  let dol = Store.dol store in
  let cb = Dol.codebook dol in
  (* decode every subject's grant slice and build every subject's runs *)
  for s = 0 to subjects - 1 do
    ignore (Codebook.grants cb 0 s);
    ignore (Access_runs.runs (Store.run_index store) ~subject:s)
  done;
  let count0 = Codebook.count cb in
  let rng = Prng.create 62 in
  let rounds = ref 0 in
  while Codebook.count cb = count0 && !rounds < 100 do
    Update.set_subtree_accessibility store ~subject:(Prng.int rng subjects)
      ~grant:(Prng.bool rng ~p:0.5) (Prng.int rng n);
    incr rounds
  done;
  check Alcotest.bool "updates interned new codes" true
    (Codebook.count cb > count0);
  let check_grants s =
    for c = count0 to Codebook.count cb - 1 do
      check Alcotest.bool
        (Printf.sprintf "grants subject %d new code %d" s c)
        (Bitset.get (Codebook.get cb c) s)
        (Codebook.grants cb c s)
    done
  in
  let check_runs s =
    let w = Access_runs.walk (Access_runs.runs (Store.run_index store) ~subject:s) in
    for v = 0 to n - 1 do
      if Access_runs.mem w v <> entry_grants dol ~subject:s v then
        Alcotest.failf "rebuilt runs: subject %d node %d" s v
    done
  in
  (* either consumer may come first after the new codes *)
  for s = 0 to subjects - 1 do
    if s mod 2 = 0 then (check_grants s; check_runs s)
    else (check_runs s; check_grants s)
  done

(* --- end-to-end: answers identical with the index on and off --- *)

let queries = [ "//item//name"; "//person[name]//city"; "/site//keyword" ]

let all_semantics subjects =
  Engine.Insecure
  :: List.concat_map
       (fun s -> [ Engine.Secure s; Engine.Secure_path s ])
       (List.init subjects Fun.id)

let answers_on_off store index sem q =
  Store.set_run_index store true;
  let on = (Engine.query store index q sem).Engine.answers in
  Store.set_run_index store false;
  let off = (Engine.query store index q sem).Engine.answers in
  Store.set_run_index store true;
  (on, off)

let test_engine_equivalence () =
  let tree, dol = make_dol ~nodes:2000 ~subjects:4 31 in
  let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
  let index = Tag_index.build tree in
  List.iter
    (fun q ->
      List.iter
        (fun sem ->
          let on, off = answers_on_off store index sem q in
          check Fixtures.int_list "runs on = runs off" off on)
        (all_semantics 4))
    queries

let test_quarantined_equivalence () =
  let tree, dol = make_dol ~nodes:1500 ~subjects:4 41 in
  let n = Tree.size tree in
  let page_size = 512 in
  let disk = Disk.create ~page_size () in
  let layout =
    Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
  in
  let quarantine = [ (n / 6, n / 5); (n / 2, n / 2 + 40) ] in
  let store = Store.assemble ~pool_capacity:16 ~quarantine ~tree ~dol ~disk ~layout () in
  let index = Tag_index.build tree in
  List.iter
    (fun q ->
      List.iter
        (fun sem ->
          let on, off = answers_on_off store index sem q in
          check Fixtures.int_list "quarantined: on = off" off on;
          (* and a quarantined node never answers accessible *)
          List.iter
            (fun (lo, hi) ->
              for v = lo to hi do
                (match sem with
                | Engine.Secure s | Engine.Secure_path s ->
                    if Store.accessible store ~subject:s v then
                      Alcotest.failf "quarantined node %d granted" v
                | Engine.Insecure -> ());
                ignore v
              done)
            quarantine)
        (all_semantics 4))
    queries

let test_parallel_determinism () =
  let tree, dol = make_dol ~nodes:2000 ~subjects:4 51 in
  let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
  let index = Tag_index.build tree in
  let batch =
    List.concat_map (fun q -> List.map (fun s -> (q, s)) (all_semantics 4)) queries
  in
  (* sequential, runs off = the pre-index baseline *)
  Store.set_run_index store false;
  let baseline =
    List.map (fun (q, s) -> (Engine.query store index q s).Engine.answers) batch
  in
  Store.set_run_index store true;
  let results =
    Serve.with_service ~jobs:4 (fun srv ->
        Serve.add_tenant srv "t" (Serve.Mem (store, index));
        Serve.run_batch srv ~tenant:"t"
          (List.map (fun (q, s) -> (Dolx_nok.Xpath.parse q, s)) batch))
  in
  List.iteri
    (fun i r ->
      check Fixtures.int_list
        (Printf.sprintf "jobs=4 query %d" i)
        (List.nth baseline i) r)
    results

(* --- per-epoch tables: update traces, carry-forward, residency --- *)

(* [h]'s verdict matrix from its own run table, through a fresh cursor. *)
let runs_matrix h =
  let dol = Store.dol h and ri = Store.run_index h in
  let cu = Access_runs.cursor () in
  Array.init (Codebook.width (Dol.codebook dol)) (fun s ->
      let w = Access_runs.walk_for ri cu ~dol ~subject:s in
      Array.init (Dol.n_nodes dol) (Access_runs.mem w))

let dol_matrix dol =
  Array.init (Codebook.width (Dol.codebook dol)) (fun s ->
      Array.init (Dol.n_nodes dol) (fun v -> Dol.accessible dol ~subject:s v))

let prop_update_traces =
  Fixtures.qtest ~count:25 "runs = Dol.accessible across update traces (live + pinned)"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let tree, dol = make_dol ~nodes:400 ~subjects:3 seed in
      let n = Dol.n_nodes dol in
      let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
      let rng = Prng.create (seed + 23) in
      for step = 1 to 10 do
        let width = Codebook.width (Dol.codebook (Store.dol store)) in
        let before = dol_matrix (Store.dol store) in
        (* a reader pinned before the step, with every list built *)
        let pinned = Store.reader store in
        if runs_matrix pinned <> before then
          QCheck2.Test.fail_reportf "step %d: pinned reader before the step" step;
        let s = Prng.int rng width and v = Prng.int rng n in
        let grant = Prng.bool rng ~p:0.5 in
        let op =
          match Prng.int rng 6 with
          | 0 | 1 ->
              Update.set_subtree_accessibility store ~subject:s ~grant v;
              "subtree"
          | 2 | 3 ->
              ignore (Update.set_node_accessibility store ~subject:s ~grant v);
              "node"
          | 4 when width > 2 ->
              Update.store_remove_subject store s;
              "remove-subject"
          | 4 ->
              ignore (Update.store_add_subject store ~like:s ());
              "add-subject"
          | _ ->
              Update.store_compact store;
              "compact"
        in
        if runs_matrix store <> dol_matrix (Store.dol store) then
          QCheck2.Test.fail_reportf "step %d (%s): live handle" step op;
        if runs_matrix pinned <> before then
          QCheck2.Test.fail_reportf "step %d (%s): pinned reader left its state"
            step op;
        Store.release pinned
      done;
      true)

(* A subject's verdict at [v] flipped, so the update is a real change. *)
let flip store ~subject v =
  not (Dol.accessible (Store.dol store) ~subject v)

let test_carry_forward () =
  let subjects = 6 in
  let tree, dol = make_dol ~nodes:1500 ~subjects 71 in
  let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
  let all () =
    let cu = Access_runs.cursor () in
    Array.init subjects (fun s ->
        Access_runs.runs_for (Store.run_index store) cu ~dol:(Store.dol store)
          ~subject:s)
  in
  let check_carried what updated update =
    let before = all () in
    update ();
    let b0 = Metrics.counter_value "runs.builds" in
    let after = all () in
    check Alcotest.int (what ^ ": one build") 1
      (Metrics.counter_value "runs.builds" - b0);
    Array.iteri
      (fun s r ->
        check Alcotest.bool
          (Printf.sprintf "%s: subject %d %s" what s
             (if s = updated then "rebuilt" else "shared"))
          (s <> updated) (r == before.(s)))
      after
  in
  let v = 40 in
  check_carried "subtree" 2 (fun () ->
      Update.set_subtree_accessibility store ~subject:2
        ~grant:(flip store ~subject:2 v) v);
  check_carried "node" 4 (fun () ->
      ignore
        (Update.set_node_accessibility store ~subject:4
           ~grant:(flip store ~subject:4 v) v));
  (* any other update starts an empty table *)
  ignore (all ());
  Update.store_compact store;
  check Alcotest.int "compact: nothing resident" 0
    (Access_runs.resident (Store.run_index store))

let test_residency () =
  let subjects = 12 in
  let _, dol = make_dol ~nodes:800 ~subjects 21 in
  let ri = Access_runs.create dol in
  let built = Array.init subjects (fun s -> Access_runs.runs ri ~subject:s) in
  check Alcotest.int "every subject resident" subjects (Access_runs.resident ri);
  check Alcotest.int "total_bytes = sum of per-subject bytes"
    (Array.fold_left (fun a r -> a + Access_runs.bytes r) 0 built)
    (Access_runs.total_bytes ri);
  let b0 = Metrics.counter_value "runs.builds" in
  Array.iteri
    (fun s r ->
      check Alcotest.bool "resident list served" true
        (Access_runs.runs ri ~subject:s == r))
    built;
  check Alcotest.int "no rebuild" b0 (Metrics.counter_value "runs.builds")

(* Brute force over a flip array: the flips at or before [v] (a node is
   accessible iff their number is odd), the least accessible node
   [>= v], and whether every node of [\[lo, hi\]] is accessible. *)
let flips_rank flips v = Array.fold_left (fun k f -> if f <= v then k + 1 else k) 0 flips

let brute_next flips v =
  let k = flips_rank flips v in
  if k land 1 = 1 then v else if k < Array.length flips then flips.(k) else max_int

let brute_span flips ~lo ~hi =
  lo > hi
  || (flips_rank flips lo land 1 = 1 && flips_rank flips lo = flips_rank flips hi)

(* One walk's [next_accessible] against brute force: random flip lists
   over up to five 64 Ki blocks (sometimes crowded into one block),
   probed by ascending walks with small steps that cross block edges,
   broken by random backward and forward jumps and repeats.  After each
   probe the run found is checked to end where the flips say. *)
let prop_walk_next_accessible =
  Fixtures.qtest ~count:300 "walk next_accessible = brute force (random flips, probe orders)"
    QCheck2.Gen.(
      quad (int_range 1 300_000) bool
        (list_size (int_bound 120) (int_bound 299_999))
        (list_size (int_bound 300) (pair (int_bound 3) (int_bound 299_999))))
    (fun (n, crowded, raw, probes) ->
      let spread x = if crowded then (n / 2) + (x mod 2000) else x in
      let flips =
        List.map (fun x -> spread x mod n) raw
        |> List.sort_uniq compare |> Array.of_list
      in
      let w = Access_runs.walk (Access_runs.of_flips ~n flips) in
      let v = ref 0 in
      List.for_all
        (fun (kind, x) ->
          (v :=
             match kind with
             | 0 -> spread x mod (n + 3)  (* jump anywhere *)
             | 1 -> !v  (* repeat *)
             | _ -> !v + (x mod 700));
          let got = Access_runs.next_accessible w !v and want = brute_next flips !v in
          if got <> want then
            QCheck2.Test.fail_reportf "n %d, probe %d: next_accessible %d, brute force %d"
              n !v got want;
          (* the run from [want] ends at the next flip *)
          (if want <> max_int then
             let k = flips_rank flips want in
             let past = if k < Array.length flips then flips.(k) else max_int in
             if not (Access_runs.span_inside w ~lo:want ~hi:(min past n - 1))
                || (past < n && Access_runs.mem w past)
             then
               QCheck2.Test.fail_reportf "n %d, probe %d: run from %d not ending at %d"
                 n !v want past);
          true)
        probes)

(* One walk probed in a mixed order — forward gallops, backward block
   searches, repeats and block-edge crossings — answers [mem],
   [next_accessible] and [span_inside] as brute force does, on flip
   lists spanning at least three 64 Ki blocks with flips clustered
   around the block edges. *)
let prop_walk_mixed_probes =
  Fixtures.qtest ~count:200 "walk mem/next_accessible/span_inside = brute force (mixed probes)"
    QCheck2.Gen.(
      quad (int_range 3 5) (int_bound 0xffff)
        (list_size (int_bound 80) (pair (int_bound 5) (int_range (-12) 12)))
        (list_size (int_bound 200) (triple (int_bound 4) (int_bound 0x4ffff) (int_bound 300))))
    (fun (blocks, tail, raw, probes) ->
      let n = ((blocks - 1) lsl 16) + 1 + tail in
      let flips =
        List.filter_map
          (fun (b, d) ->
            let f = (b lsl 16) + d in
            if f >= 0 && f < n then Some f else None)
          raw
        |> List.sort_uniq compare |> Array.of_list
      in
      let w = Access_runs.walk (Access_runs.of_flips ~n flips) in
      let v = ref 0 in
      List.for_all
        (fun (kind, x, len) ->
          (v :=
             match kind with
             | 0 -> x mod (n + 3)  (* jump anywhere *)
             | 1 -> max 0 (!v - len)  (* step back *)
             | 2 -> !v + len  (* step forward *)
             | 3 -> ((x mod (blocks + 1)) lsl 16) + (len mod 24) - 12  (* a block edge *)
             | _ -> !v);
          let v = max 0 !v in
          let hi = v + (len mod 70_000) in
          let mem = Access_runs.mem w v
          and next = Access_runs.next_accessible w v
          and span = Access_runs.span_inside w ~lo:v ~hi in
          if mem <> (flips_rank flips v land 1 = 1) then
            QCheck2.Test.fail_reportf "n %d, probe %d: mem %b" n v mem;
          if next <> brute_next flips v then
            QCheck2.Test.fail_reportf "n %d, probe %d: next_accessible %d, brute force %d"
              n v next (brute_next flips v);
          if span <> brute_span flips ~lo:v ~hi then
            QCheck2.Test.fail_reportf "n %d, span [%d, %d]: span_inside %b" n v hi span;
          true)
        probes)

(* A run-gated candidate walk allocates nothing per gate call: drain a
   {!Postings.cursor} over every preorder, gated by the store's runs,
   and count the minor words of the whole drain against the gate calls
   it made. *)
let test_gate_allocates_nothing () =
  let subjects = 2 in
  let tree, dol = make_dol ~nodes:6000 ~subjects 17 in
  let store = Store.create tree dol in
  let n = Tree.size tree in
  for s = 0 to subjects - 1 do
    let next = Store.next_accessible store ~subject:s in
    let calls = ref 0 in
    let gate v =
      incr calls;
      next v
    in
    let c = Postings.cursor ~gate (Postings.span 0 (n - 1)) in
    let rec drain k = match Postings.next c with -1 -> k | _ -> drain (k + 1) in
    let w0 = Gc.minor_words () in
    let admitted = drain 0 in
    let words = Gc.minor_words () -. w0 in
    if !calls < 100 || admitted = 0 then
      Alcotest.failf "subject %d: a weak probe (%d gate calls, %d admitted)" s !calls
        admitted;
    if words > 64.0 then
      Alcotest.failf "subject %d: %.0f minor words for %d gate calls" s words !calls
  done

(* --- summary-path steps decided without a page --- *)

(* On random documents, policies and update traces, a plain step's
   resident decision ({!Engine.resident_step} holds; the class under
   [Insecure], the run verdict under secure semantics) equals the
   page-reading qualification on every node of a class the step admits,
   under all three semantics, on a store with quarantined ranges.  A
   step that is not plain, or a secure semantics with the run index off,
   gets no resident decision.  Every check denies the quarantined range
   and only it, with the run index on and off. *)
let prop_resident_step_matches_qualifies =
  let queries =
    [ "//parlist//parlist"; "//listitem//keyword"; "//item//emph";
      "/site/categories/category/description/text/bold";
      "/site/regions/*/item[name]/description"; "//person[name]//city";
      "//text[bold]/keyword" ]
  in
  Fixtures.qtest ~count:20 "resident step decision = Nok_match.qualifies"
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 4) (int_range 0 6))
    (fun (seed, subjects, updates) ->
      let tree, dol = make_dol ~nodes:500 ~subjects seed in
      let n = Tree.size tree in
      let disk = Disk.create ~page_size:512 () in
      let layout =
        Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
      in
      let q0 = n / 7 in
      let store =
        Store.assemble ~pool_capacity:8 ~quarantine:[ (q0, q0 + 15) ] ~tree ~dol
          ~disk ~layout ()
      in
      let index = Tag_index.build tree in
      let ps = Store.path_summary store in
      let rng = Prng.create (seed + 7) in
      let check_all round =
        List.iter
          (fun q ->
            let pattern = Dolx_nok.Xpath.parse q in
            let steps =
              List.concat_map
                (fun (sg : Decompose.segment) -> sg.Decompose.steps)
                (Decompose.plan pattern).Decompose.segments
            in
            List.iter
              (fun sem ->
                List.iter
                  (fun runs ->
                    Store.set_run_index store runs;
                    let sp =
                      match Engine.summary_analysis store pattern sem with
                      | Some sp -> sp
                      | None -> QCheck2.Test.fail_report "summary off"
                    in
                    let mode =
                      match sem with
                      | Engine.Insecure -> Nok_match.insecure
                      | Engine.Secure s -> Nok_match.secure s
                      | Engine.Secure_path s -> Nok_match.secure ~path_semantics:true s
                    in
                    List.iter
                      (fun (st : Decompose.step) ->
                        let p = st.Decompose.pnode in
                        let plain =
                          st.Decompose.preds = [] && p.Pattern.value = None
                          && p.Pattern.test <> Pattern.Wildcard
                        in
                        if not (Engine.resident_step store sem st) then begin
                          if plain && (runs || sem = Engine.Insecure) then
                            QCheck2.Test.fail_reportf "%s: a plain step reads its page" q
                        end
                        else begin
                          (* the decision the plan takes for a resident
                             step: the class alone under [Insecure], the
                             counted run verdict under secure semantics *)
                          let decide v =
                            match sem with
                            | Engine.Insecure -> true
                            | Engine.Secure s | Engine.Secure_path s ->
                                Store.accessible store ~subject:s v
                          in
                          if not plain then
                            QCheck2.Test.fail_reportf "%s: a step with a predicate \
                                                       decided without its page" q;
                          if sem <> Engine.Insecure && not runs then
                            QCheck2.Test.fail_reportf "%s: resident with the runs off" q;
                          let adm = Summary_prune.classes sp p in
                          let qualifies =
                            Nok_match.qualifies store index mode p ~preds:st.Decompose.preds
                          in
                          for v = 0 to n - 1 do
                            if
                              Summary_prune.mem adm (Dolx_index.Path_summary.class_of ps v)
                              && decide v <> qualifies v
                            then
                              QCheck2.Test.fail_reportf
                                "round %d, %s, node %d: resident %b, page %b" round q v
                                (decide v) (qualifies v)
                          done
                        end)
                      steps)
                  [ true; false ])
              (all_semantics subjects))
          queries;
        (* the quarantine's edges, on the run path and the page path *)
        List.iter
          (fun runs ->
            Store.set_run_index store runs;
            for s = 0 to subjects - 1 do
              for v = max 0 (q0 - 1) to min (n - 1) (q0 + 16) do
                let want =
                  (v < q0 || v > q0 + 15) && Dol.accessible (Store.dol store) ~subject:s v
                in
                if Store.accessible store ~subject:s v <> want then
                  QCheck2.Test.fail_reportf "round %d, runs %b: node %d of subject %d"
                    round runs v s
              done
            done)
          [ true; false ];
        Store.set_run_index store true
      in
      check_all 0;
      for round = 1 to updates do
        let s = Prng.int rng subjects and v = Prng.int rng n in
        let grant = Prng.bool rng ~p:0.5 in
        if Prng.bool rng ~p:0.5 then
          Update.set_subtree_accessibility store ~subject:s ~grant v
        else ignore (Update.set_node_accessibility store ~subject:s ~grant v);
        check_all round
      done;
      true)

(* Q4–Q6: every trunk step is plain. *)
let plain_trunks = [ "//parlist//parlist"; "//listitem//keyword"; "//item//emph" ]

let plain_trunk_store () =
  let tree, dol = make_dol ~nodes:3000 ~subjects:3 61 in
  (Store.create ~page_size:512 ~pool_capacity:16 tree dol, Tag_index.build tree)

(* On a store with both tiers on, under [Secure] the summary-path plan
   decides every step of Q4–Q6 from the class map and the runs, reads no
   page, and answers what the segment plan answers. *)
let test_plain_trunks_read_no_page () =
  let store, index = plain_trunk_store () in
  List.iter
    (fun q ->
      List.iter
        (fun s ->
          Store.set_summary store false;
          let want = (Engine.query store index q (Engine.Secure s)).Engine.answers in
          Store.set_summary store true;
          let before = Metrics.counter_value "engine.resident_decisions" in
          Store.with_reader store (fun r ->
              let got = (Engine.query r index q (Engine.Secure s)).Engine.answers in
              check Fixtures.int_list (q ^ ": segment plan's answers") want got;
              let io = Store.io_stats r in
              check Alcotest.int (q ^ ": no page touched") 0 io.Store.page_touches;
              check Alcotest.int (q ^ ": no pool miss") 0 io.Store.pool_misses;
              check Alcotest.bool (q ^ ": checks counted") true
                (want = [] || io.Store.access_checks > 0));
          check Alcotest.bool (q ^ ": resident decisions counted") true
            (want = []
            || Metrics.counter_value "engine.resident_decisions" > before))
        [ 0; 1; 2 ])
    plain_trunks

(* The same queries with the run index off: a secure verdict needs the
   page, so the plan falls back to [Nok_match.qualifies] and reads
   pages, with the same answers and no resident decision. *)
let test_runs_off_reads_pages () =
  let store, index = plain_trunk_store () in
  List.iter
    (fun q ->
      Store.set_summary store false;
      let want = (Engine.query store index q (Engine.Secure 0)).Engine.answers in
      Store.set_summary store true;
      Store.set_run_index store false;
      let before = Metrics.counter_value "engine.resident_decisions" in
      Store.with_reader store (fun r ->
          let got = (Engine.query r index q (Engine.Secure 0)).Engine.answers in
          check Fixtures.int_list (q ^ ": same answers") want got;
          check Alcotest.bool (q ^ ": pages read") true
            ((Store.io_stats r).Store.page_touches > 0));
      check Alcotest.int (q ^ ": no resident decision") before
        (Metrics.counter_value "engine.resident_decisions");
      Store.set_run_index store true)
    plain_trunks

(* --- the summary-path decision loop --- *)

(* A random summary-path trunk along the root path of a random node: 2-4
   steps at increasing depths, the last at the node itself.  An edge is
   a child edge where the depths are adjacent and the draw says so, a
   descendant edge elsewhere.  A step before the last may be a wildcard;
   a step may carry a child or descendant predicate naming a child's
   tag (sometimes with its text) or a tag no node has; the last step may
   test its text. *)
let random_trunk rng tree =
  let n = Tree.size tree in
  let rec pick tries =
    let v = Prng.int rng n in
    if Tree.depth tree v >= 2 || tries = 0 then v else pick (tries - 1)
  in
  let rec up u acc = if u = Tree.nil then acc else up (Tree.parent tree u) (u :: acc) in
  let path = Array.of_list (up (pick 50) []) in
  let d = Array.length path in
  let steps = Int.min (2 + Prng.int rng 3) d in
  let positions =
    List.sort compare (Prng.sample rng (d - 1) (steps - 1)) @ [ d - 1 ]
  in
  let buf = Buffer.create 64 in
  let quote s = "\"" ^ s ^ "\"" in
  let safe s = not (String.contains s '"') in
  List.iteri
    (fun m pos ->
      let u = path.(pos) in
      let child =
        if m = 0 then pos = 0 && Prng.bool rng ~p:0.5
        else pos = List.nth positions (m - 1) + 1 && Prng.bool rng ~p:0.6
      in
      Buffer.add_string buf (if child then "/" else "//");
      Buffer.add_string buf
        (if m < steps - 1 && Prng.bool rng ~p:0.15 then "*" else Tree.tag_name tree u);
      if Prng.bool rng ~p:0.3 then begin
        let axis = if Prng.bool rng ~p:0.3 then "//" else "" in
        match Tree.children tree u with
        | [] -> Buffer.add_string buf ("[" ^ axis ^ "nosuchtag]")
        | cs ->
            let c = List.nth cs (Prng.int rng (List.length cs)) in
            let t = Tree.tag_name tree c and x = Tree.text tree c in
            if Prng.bool rng ~p:0.1 then Buffer.add_string buf ("[" ^ axis ^ "nosuchtag]")
            else if Prng.bool rng ~p:0.25 && x <> "" && safe x then
              Buffer.add_string buf ("[" ^ axis ^ t ^ "=" ^ quote x ^ "]")
            else Buffer.add_string buf ("[" ^ axis ^ t ^ "]")
      end;
      let x = Tree.text tree u in
      if m = steps - 1 && x <> "" && safe x && Prng.bool rng ~p:0.1 then
        Buffer.add_string buf ("=" ^ quote x))
    positions;
  Buffer.contents buf

(* On random documents, policies, update traces and a quarantined range,
   random 2-4 step trunks answer the same through the summary-path loop,
   through the segment plan (summary off) and in the naive oracle, under
   all three semantics with the run index on and off. *)
let prop_summary_loop_matches_oracle =
  Fixtures.qtest ~count:15 "summary-path loop = segment plan = oracle"
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 4) (int_range 0 3))
    (fun (seed, subjects, updates) ->
      let tree, dol = make_dol ~nodes:400 ~subjects seed in
      let n = Tree.size tree in
      let disk = Disk.create ~page_size:512 () in
      let layout =
        Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
      in
      let q0 = 1 + (seed mod (n / 2)) in
      let store =
        Store.assemble ~pool_capacity:8 ~quarantine:[ (q0, q0 + 9) ] ~tree ~dol ~disk
          ~layout ()
      in
      let index = Tag_index.build tree in
      let rng = Prng.create (seed + 3) in
      let trunks = List.init 4 (fun _ -> random_trunk rng tree) in
      let check_all round =
        List.iter
          (fun q ->
            let pattern = Dolx_nok.Xpath.parse q in
            List.iter
              (fun sem ->
                let acc s v = (v < q0 || v > q0 + 9) && Dol.accessible (Store.dol store) ~subject:s v in
                let oracle =
                  Reference.eval tree
                    (match sem with
                    | Engine.Insecure -> Reference.Any
                    | Engine.Secure s -> Reference.Bound (acc s)
                    | Engine.Secure_path s -> Reference.Path (acc s))
                    pattern
                in
                List.iter
                  (fun runs ->
                    Store.set_run_index store runs;
                    Store.set_summary store false;
                    let segments = (Engine.run store index pattern sem).Engine.answers in
                    Store.set_summary store true;
                    let before = Metrics.counter_value "engine.plan_summary_path" in
                    let loop = (Engine.run store index pattern sem).Engine.answers in
                    if Metrics.counter_value "engine.plan_summary_path" <> before + 1 then
                      QCheck2.Test.fail_reportf "%s: not a summary-path plan" q;
                    if loop <> oracle || segments <> oracle then
                      QCheck2.Test.fail_reportf
                        "round %d, %s, runs %b: loop %d answers, segments %d, oracle %d" round q
                        runs (List.length loop) (List.length segments) (List.length oracle))
                  [ true; false ])
              (all_semantics subjects))
          trunks;
        Store.set_run_index store true
      in
      check_all 0;
      for round = 1 to updates do
        let s = Prng.int rng subjects and v = Prng.int rng n in
        let grant = Prng.bool rng ~p:0.5 in
        if Prng.bool rng ~p:0.5 then
          Update.set_subtree_accessibility store ~subject:s ~grant v
        else ignore (Update.set_node_accessibility store ~subject:s ~grant v);
        check_all round
      done;
      true)

(* The summary-path plan's qualification count, by a model that keeps
   every (step, node) verdict in a table it never empties: the chains
   forget an ancestor only once no later candidate lies in its subtree,
   so the plan must qualify exactly the nodes the model does.  [Insecure]
   and [Secure] (run index on, no quarantine), plain trunks. *)
let memo_model store pattern sem =
  let tree = Store.tree store in
  let ps = Store.path_summary store in
  let sp = Option.get (Engine.summary_analysis store pattern sem) in
  let steps =
    Array.of_list
      (List.concat_map
         (fun (sg : Decompose.segment) -> sg.Decompose.steps)
         (Decompose.plan pattern).Decompose.segments)
  in
  let k = Array.length steps - 1 in
  let pnode i = steps.(i).Decompose.pnode in
  let adm i u =
    Summary_prune.mem (Summary_prune.classes sp (pnode i)) (Dolx_index.Path_summary.class_of ps u)
  in
  let ok v =
    match sem with
    | Engine.Secure s -> Dol.accessible (Store.dol store) ~subject:s v
    | Engine.Insecure | Engine.Secure_path _ -> true
  in
  let count = ref 0 in
  let memo = Hashtbl.create 64 in
  let rec decide i v =
    let above =
      if i = 0 then (pnode 0).Pattern.axis <> Pattern.Child || v = Tree.root
      else if (pnode i).Pattern.axis = Pattern.Child then
        let u = Tree.parent tree v in
        u <> Tree.nil && adm (i - 1) u && memo_decide (i - 1) u
      else
        let rec search u =
          u <> Tree.nil && ((adm (i - 1) u && memo_decide (i - 1) u) || search (Tree.parent tree u))
        in
        search (Tree.parent tree v)
    in
    above
    && begin
      incr count;
      ok v
    end
  and memo_decide i u =
    match Hashtbl.find_opt memo (i, u) with
    | Some b -> b
    | None ->
        let b = decide i u in
        Hashtbl.add memo (i, u) b;
        b
  in
  let last = match (pnode k).Pattern.test with Pattern.Tag t -> t | Pattern.Wildcard -> "" in
  let answers = ref [] in
  for v = 0 to Tree.size tree - 1 do
    (* the cursor: the last step's tag, an admissible class, and under
       [Secure] the run gate *)
    if Tree.tag_name tree v = last && adm k v && ok v && decide k v then answers := v :: !answers
  done;
  (List.rev !answers, !count)

let test_loop_qualifies_each_node_once () =
  let trunks =
    plain_trunks
    @ [ "//listitem//parlist//listitem//keyword"; "/site//item/description//keyword";
        "//category//text/keyword"; "//parlist/listitem//text" ]
  in
  List.iter
    (fun seed ->
      let tree, dol = make_dol ~nodes:3000 ~subjects:2 seed in
      let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
      let index = Tag_index.build tree in
      List.iter
        (fun q ->
          let pattern = Dolx_nok.Xpath.parse q in
          List.iter
            (fun sem ->
              let want, scanned = memo_model store pattern sem in
              let before = Metrics.counter_value "engine.resident_decisions" in
              let r = Engine.run store index pattern sem in
              check Fixtures.int_list (q ^ ": answers") want r.Engine.answers;
              check Alcotest.int (q ^ ": qualifications") scanned r.Engine.candidates_scanned;
              check Alcotest.int (q ^ ": every one decided without a page") scanned
                (Metrics.counter_value "engine.resident_decisions" - before))
            [ Engine.Insecure; Engine.Secure 0; Engine.Secure 1 ])
        trunks)
    [ 5; 71 ]

(* A Q4-Q6 summary-path drain allocates the chunk lists' cells, three
   words per answer, and a constant per chunk and per stream: the
   decision loop allocates nothing per candidate or per ancestor. *)
let test_loop_drain_allocation () =
  let tree, dol = make_dol ~nodes:40_000 ~subjects:2 23 in
  let store = Store.create ~page_size:512 ~pool_capacity:16 tree dol in
  let index = Tag_index.build tree in
  List.iter
    (fun q ->
      let pattern = Dolx_nok.Xpath.parse q in
      List.iter
        (fun sem ->
          List.iter
            (fun chunk ->
              let st = Engine.stream ~chunk store index pattern sem in
              let answers = ref 0 and chunks = ref 0 in
              let rec drain () =
                match Engine.stream_next st with
                | [] -> ()
                | c ->
                    answers := !answers + List.length c;
                    incr chunks;
                    drain ()
              in
              let w0 = Gc.minor_words () in
              drain ();
              let words = Gc.minor_words () -. w0 in
              let scanned = Engine.stream_scanned st in
              if !answers < 50 || scanned <= !answers then
                Alcotest.failf "%s, chunk %d: a weak probe (%d answers, %d scanned)" q chunk
                  !answers scanned;
              let bound = float_of_int ((3 * !answers) + (8 * !chunks) + 512) in
              if words > bound then
                Alcotest.failf "%s, chunk %d: %.0f minor words for %d answers in %d chunks" q
                  chunk words !answers !chunks)
            [ 64; 256 ])
        [ Engine.Insecure; Engine.Secure 0; Engine.Secure_path 1 ])
    plain_trunks

(* The [access] canary (node 3 reported inaccessible) reaches the steps
   the summary-path loop decides without a page: armed, a plain trunk
   binding node 3, and one passing through it, answer what the oracle
   answers with node 3 denied, under both secure semantics. *)
let test_canary_reaches_plain_steps () =
  let tree, dol = make_dol ~nodes:2000 ~subjects:1 13 in
  let store = Store.create tree dol in
  let index = Tag_index.build tree in
  List.iter
    (fun v -> ignore (Update.set_node_accessibility store ~subject:0 ~grant:true v))
    [ 0; 1; 2; 3 ];
  let rec up u acc = if u = Tree.nil then acc else up (Tree.parent tree u) (u :: acc) in
  let to3 = String.concat "" (List.map (fun u -> "/" ^ Tree.tag_name tree u) (up 3 [])) in
  let below = Tree.tag_name tree (Tree.subtree_end tree 3) in
  let acc armed v = not (armed && v = 3) && Dol.accessible (Store.dol store) ~subject:0 v in
  List.iter
    (fun q ->
      let pattern = Dolx_nok.Xpath.parse q in
      List.iter
        (fun sem ->
          let answers armed =
            Store.planted_bug := armed;
            Fun.protect
              ~finally:(fun () -> Store.planted_bug := false)
              (fun () -> (Engine.run store index pattern sem).Engine.answers)
          in
          let oracle armed =
            Reference.eval tree
              (match sem with
              | Engine.Secure_path _ -> Reference.Path (acc armed)
              | _ -> Reference.Bound (acc armed))
              pattern
          in
          let plain = (answers false, oracle false) in
          check Fixtures.int_list (q ^ ": unarmed") (snd plain) (fst plain);
          if fst plain = [] then Alcotest.failf "%s: a weak probe (no answer)" q;
          check Fixtures.int_list (q ^ ": armed") (oracle true) (answers true);
          check Alcotest.bool (q ^ ": the canary moved the answers") true
            (oracle true <> fst plain))
        [ Engine.Secure 0; Engine.Secure_path 0 ])
    [ to3; to3 ^ "//" ^ below ]

let suite =
  [
    prop_runs_match_dol;
    prop_dol_cursor_matches_code_at;
    Alcotest.test_case "range helpers vs brute force" `Quick test_range_helpers;
    Alcotest.test_case "run statistics" `Quick test_run_stats;
    prop_runs_minus_deny;
    prop_rebuild_after_updates;
    Alcotest.test_case "stale columns extend after interning" `Quick
      test_stale_columns;
    Alcotest.test_case "engine: answers on = off (all semantics)" `Quick
      test_engine_equivalence;
    Alcotest.test_case "quarantined store: answers on = off" `Quick
      test_quarantined_equivalence;
    Alcotest.test_case "executor jobs=4 = sequential baseline" `Quick
      test_parallel_determinism;
    prop_update_traces;
    Alcotest.test_case "carry-forward shares unchanged subjects" `Quick
      test_carry_forward;
    Alcotest.test_case "every built subject stays resident" `Quick
      test_residency;
    prop_walk_next_accessible;
    prop_walk_mixed_probes;
    Alcotest.test_case "a run-gated drain allocates nothing per gate call" `Quick
      test_gate_allocates_nothing;
    prop_resident_step_matches_qualifies;
    Alcotest.test_case "Q4-Q6 under Secure read no page" `Quick
      test_plain_trunks_read_no_page;
    Alcotest.test_case "run index off: Q4-Q6 read pages" `Quick
      test_runs_off_reads_pages;
    prop_summary_loop_matches_oracle;
    Alcotest.test_case "summary-path loop qualifies each chain node once" `Quick
      test_loop_qualifies_each_node_once;
    Alcotest.test_case "a Q4-Q6 summary-path drain allocates per answer only" `Quick
      test_loop_drain_allocation;
    Alcotest.test_case "the access canary reaches the plain steps" `Quick
      test_canary_reaches_plain_steps;
  ]
