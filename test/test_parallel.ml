(** Determinism and accounting of parallel batches ({!Serve.run_batch}):
    batch evaluation on several worker domains must be byte-identical to
    the sequential engine on the same inputs — across PRNG-seeded query
    mixes, all three semantics, and quarantined stores — and the
    registry must count the same work as the same batch run one query
    at a time. *)

module Tree = Dolx_xml.Tree
module Prng = Dolx_util.Prng
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Epoch = Dolx_storage.Epoch
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Pattern = Dolx_nok.Pattern
module Serve = Dolx_serve.Serve
module Metrics = Dolx_obs.Metrics
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Query_mix = Dolx_workload.Query_mix

let check = Alcotest.check

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

let make_store ?(nodes = 2500) ?(page_size = 1024) ?(pool_capacity = 16)
    ?(subjects = 6) seed =
  let tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects:subjects ()
  in
  let dol = Dol.of_labeling labeling in
  let store = Store.create ~page_size ~pool_capacity tree dol in
  let index = Tag_index.build tree in
  (store, index)

(* A store with quarantined preorder ranges, assembled from parts the
   way DB-file recovery does. *)
let make_quarantined_store seed =
  let tree = Xmark.generate_nodes ~seed 1500 in
  let n = Tree.size tree in
  let labeling = Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects:4 () in
  let dol = Dol.of_labeling labeling in
  let disk = Disk.create ~page_size:1024 () in
  let layout =
    Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
  in
  let quarantine = [ (n / 5, n / 4); (n / 2, n / 2 + 60) ] in
  let store =
    Store.assemble ~pool_capacity:16 ~quarantine ~tree ~dol ~disk ~layout ()
  in
  (store, Tag_index.build tree)

(* [batch] on a fresh [jobs]-worker service over [store]. *)
let serve_batch ?(jobs = 4) store index batch =
  Serve.with_service ~jobs (fun srv ->
      Serve.add_tenant srv "t" (Serve.Mem (store, index));
      Serve.run_batch srv ~tenant:"t" batch)

let engine_counters =
  [ "engine.queries"; "engine.segments"; "engine.joins";
    "engine.candidates_scanned"; "engine.answers" ]

(* What [f] adds to the named registry counters. *)
let counter_deltas names f =
  let before = List.map (fun n -> Metrics.counter_value n) names in
  let r = f () in
  (r, List.map2 (fun n b -> (n, Metrics.counter_value n - b)) names before)

(* A batch equals sequential evaluation: the same answers, query by
   query, and the same engine work (segments, joins, candidates) as the
   same batch run one query at a time, each on a fresh reader. *)
let batch_eq name store index batch =
  let expected, want =
    counter_deltas engine_counters (fun () ->
        List.map
          (fun (p, sem) ->
            Store.with_reader store (fun r -> (Engine.run r index p sem).Engine.answers))
          batch)
  in
  let got, have =
    counter_deltas engine_counters (fun () -> serve_batch store index batch)
  in
  List.iteri
    (fun i (e, g) ->
      check Alcotest.(list int) (Printf.sprintf "%s query %d: answers" name i) e g)
    (List.combine expected got);
  List.iter2
    (fun (n, w) (_, h) -> check Alcotest.int (name ^ ": " ^ n) w h)
    want have

(* --- batch determinism: >= 20 seeded mixes, jobs=4 vs sequential --- *)

let batch_vs_sequential store index ~mix_seed ~subjects ~n =
  let entries = Query_mix.generate ~n ~subjects ~seed:mix_seed () in
  let batch =
    List.map (fun e -> (Xpath.parse e.Query_mix.xpath, semantics e.Query_mix.semantics)) entries
  in
  batch_eq (Printf.sprintf "mix %d" mix_seed) store index batch

let test_batch_determinism () =
  (* two documents x ten mixes = twenty seeded workloads *)
  List.iter
    (fun doc_seed ->
      let store, index = make_store doc_seed in
      for mix_seed = 300 to 309 do
        batch_vs_sequential store index ~mix_seed ~subjects:6 ~n:6
      done)
    [ 41; 42 ]

let test_batch_determinism_quarantined () =
  let store, index = make_quarantined_store 77 in
  for mix_seed = 500 to 504 do
    batch_vs_sequential store index ~mix_seed ~subjects:4 ~n:6
  done

(* All three semantics explicitly, over every benchmark query. *)
let test_batch_all_semantics () =
  let store, index = make_store 55 in
  let batch =
    List.concat_map
      (fun (_, xpath) ->
        let p = Xpath.parse xpath in
        [ (p, Engine.Insecure); (p, Engine.Secure 2); (p, Engine.Secure_path 3) ])
      Xmark.queries
  in
  batch_eq "semantics" store index batch

(* --- statistics parity: per-reader sums vs the folded registry --- *)

(* Every query of a service batch folds its own fresh reader at stream
   end, so the registry must hold what the same queries count on fresh
   readers one at a time. *)
let test_stats_parity () =
  let store, index = make_store 91 in
  let entries = Query_mix.generate ~n:12 ~subjects:6 ~seed:801 () in
  let batch =
    List.map (fun e -> (Xpath.parse e.Query_mix.xpath, semantics e.Query_mix.semantics)) entries
  in
  let per_reader =
    List.map
      (fun (p, sem) ->
        Store.with_reader store (fun r ->
            ignore (Engine.run r index p sem);
            Store.io_stats r))
      batch
  in
  Store.reset_stats store;
  Metrics.reset Metrics.default;
  ignore (serve_batch ~jobs:2 store index batch);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 per_reader in
  let reg name = Metrics.counter_value name in
  check Alcotest.int "access checks" (reg "store.access_checks")
    (sum (fun s -> s.Store.access_checks));
  check Alcotest.int "header skips" (reg "store.header_skips")
    (sum (fun s -> s.Store.header_skips));
  check Alcotest.int "codebook lookups" (reg "store.codebook_lookups")
    (sum (fun s -> s.Store.codebook_lookups));
  check Alcotest.int "run answers" (reg "store.run_answers")
    (sum (fun s -> s.Store.run_answers));
  check Alcotest.int "pool touches" (reg "pool.touches")
    (sum (fun s -> s.Store.page_touches));
  check Alcotest.int "pool hits" (reg "pool.hits") (sum (fun s -> s.Store.pool_hits));
  check Alcotest.int "pool misses" (reg "pool.misses")
    (sum (fun s -> s.Store.pool_misses));
  (* the readers share one disk: its counts are taken once *)
  check Alcotest.int "disk reads" (reg "disk.reads")
    (Disk.stats (Store.disk store)).Disk.reads

(* --- a raising query mid-batch --- *)

(* The middle query cannot be evaluated (its first step has the
   following-sibling axis), so the batch re-raises its error once every
   ticket is drained; the service then answers the next batch like the
   sequential engine, and no reader pin outlives a batch. *)
let test_raising_task_mid_batch () =
  let store, index = make_store 63 in
  let ep = Disk.epoch (Store.disk store) in
  let pins0 = Epoch.pin_count ep in
  let q xpath = (Xpath.parse xpath, Engine.Secure 1) in
  let before = List.map q [ "//item/name"; "//listitem//keyword" ]
  and after = List.map q [ "//person"; "//description" ] in
  let good = before @ after in
  let bad =
    Pattern.of_root
      (Pattern.make ~axis:Pattern.Following_sibling ~returning:true
         (Pattern.Tag "item") [])
  in
  let batch = before @ ((bad, Engine.Insecure) :: after) in
  Serve.with_service ~jobs:2 (fun srv ->
      Serve.add_tenant srv "t" (Serve.Mem (store, index));
      (match Serve.run_batch srv ~tenant:"t" batch with
      | _ -> Alcotest.fail "the raising query's exception was swallowed"
      | exception Invalid_argument msg ->
          check Alcotest.string "the raising query's error"
            "Engine: query cannot start with following-sibling::" msg);
      check Alcotest.int "pins back at baseline after the failed batch" pins0
        (Epoch.pin_count ep);
      let expected =
        List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) good
      in
      List.iteri
        (fun i (e, g) ->
          check Alcotest.(list int) (Printf.sprintf "after failure, query %d" i) e g)
        (List.combine expected (Serve.run_batch srv ~tenant:"t" good)));
  check Alcotest.int "pins back at baseline" pins0 (Epoch.pin_count ep)

(* --- atomic counters are exact under concurrent increments --- *)

let test_atomic_counters_exact () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "par.test" in
  let g = Metrics.gauge ~reg "par.gauge" in
  let per_domain = 20_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c;
              Metrics.gauge_add g 1.0
            done))
  in
  Array.iter Domain.join domains;
  check Alcotest.int "counter exact" (4 * per_domain) (Metrics.count c);
  check (Alcotest.float 0.0) "gauge exact"
    (float_of_int (4 * per_domain))
    (Metrics.gauge_value g)

(* --- reader handles leave the parent untouched --- *)

let test_reader_isolation () =
  let store, index = make_store 13 in
  Store.reset_stats store;
  let r = Store.reader store in
  ignore (Engine.query r index "//listitem//keyword" (Engine.Secure 0));
  let rs = Store.io_stats r in
  Alcotest.(check bool) "reader did work" true (rs.Store.access_checks > 0);
  let ps = Store.io_stats store in
  check Alcotest.int "parent checks untouched" 0 ps.Store.access_checks;
  check Alcotest.int "parent touches untouched" 0 ps.Store.page_touches;
  (* same answers through parent and reader *)
  let a = Engine.query store index "//listitem//keyword" (Engine.Secure 0) in
  let b = Engine.query r index "//listitem//keyword" (Engine.Secure 0) in
  check Alcotest.(list int) "same answers" a.Engine.answers b.Engine.answers;
  ignore (Tag_index.postings index 0)

let suite =
  [
    Alcotest.test_case "batch jobs=4 = sequential (20 mixes)" `Quick
      test_batch_determinism;
    Alcotest.test_case "batch determinism on quarantined store" `Quick
      test_batch_determinism_quarantined;
    Alcotest.test_case "batch: all semantics on all queries" `Quick
      test_batch_all_semantics;
    Alcotest.test_case "reader handle isolates statistics" `Quick
      test_reader_isolation;
    Alcotest.test_case "per-reader stats sum to registry" `Quick
      test_stats_parity;
    Alcotest.test_case "atomic counters exact under 4 domains" `Quick
      test_atomic_counters_exact;
    Alcotest.test_case "raising query mid-batch (jobs=2)" `Quick
      test_raising_task_mid_batch;
  ]
