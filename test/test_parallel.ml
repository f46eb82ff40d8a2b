(** Determinism and accounting of the multicore executor: batch and
    intra-query evaluation on a domain pool must be byte-identical to
    the sequential engine on the same inputs — across PRNG-seeded query
    mixes, all three semantics, and quarantined stores — and the summed
    per-reader statistics must agree with the metrics registry they are
    folded into. *)

module Tree = Dolx_xml.Tree
module Prng = Dolx_util.Prng
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Exec = Dolx_exec.Exec
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
    Nok_layout.build disk tree ~transitions:(Array.of_list (Dol.transitions dol))
  in
  let quarantine = [ (n / 5, n / 4); (n / 2, n / 2 + 60) ] in
  let store =
    Store.assemble ~pool_capacity:16 ~quarantine ~tree ~dol ~disk ~layout ()
  in
  (store, Tag_index.build tree)

let result_eq name (a : Engine.result) (b : Engine.result) =
  check Alcotest.(list int) (name ^ ": answers") a.Engine.answers b.Engine.answers;
  check Alcotest.int (name ^ ": segments") a.Engine.segments b.Engine.segments;
  check Alcotest.int (name ^ ": joins") a.Engine.joins b.Engine.joins;
  check Alcotest.int
    (name ^ ": candidates")
    a.Engine.candidates_scanned b.Engine.candidates_scanned

(* --- batch determinism: >= 20 seeded mixes, jobs=4 vs sequential --- *)

let batch_vs_sequential store index ~mix_seed ~subjects ~n =
  let entries = Query_mix.generate ~n ~subjects ~seed:mix_seed () in
  let batch =
    List.map (fun e -> (Xpath.parse e.Query_mix.xpath, semantics e.Query_mix.semantics)) entries
  in
  let expected =
    List.map (fun (p, sem) -> Engine.run store index p sem) batch
  in
  let exec = Exec.create ~jobs:4 store index in
  let got = Exec.run_batch exec batch in
  Exec.shutdown exec;
  List.iteri
    (fun i (e, g) -> result_eq (Printf.sprintf "mix %d query %d" mix_seed i) e g)
    (List.combine expected got)

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
  let expected = List.map (fun (p, sem) -> Engine.run store index p sem) batch in
  let exec = Exec.create ~jobs:4 store index in
  let got = Exec.run_batch exec batch in
  Exec.shutdown exec;
  List.iteri
    (fun i (e, g) -> result_eq (Printf.sprintf "semantics case %d" i) e g)
    (List.combine expected got)

(* --- intra-query determinism: chunked segments vs sequential --- *)

let test_intra_query_determinism () =
  let store, index = make_store ~nodes:4000 66 in
  let exec = Exec.create ~jobs:3 store index in
  List.iter
    (fun (qid, xpath) ->
      let p = Xpath.parse xpath in
      List.iter
        (fun sem ->
          let e = Engine.run store index p sem in
          let g = Exec.run exec p sem in
          result_eq (Printf.sprintf "intra %s" qid) e g)
        [ Engine.Insecure; Engine.Secure 1; Engine.Secure_path 4 ])
    Xmark.queries;
  Exec.shutdown exec

(* --- statistics parity: per-reader sums vs the folded registry --- *)

let test_stats_parity () =
  let store, index = make_store 91 in
  let exec = Exec.create ~jobs:2 store index in
  let entries = Query_mix.generate ~n:12 ~subjects:6 ~seed:801 () in
  let batch =
    List.map (fun e -> (Xpath.parse e.Query_mix.xpath, semantics e.Query_mix.semantics)) entries
  in
  Exec.reset_stats exec;
  Metrics.reset Metrics.default;
  ignore (Exec.run_batch exec batch);
  let sum f =
    List.fold_left (fun acc r -> acc + f (Store.io_stats r)) 0 (Exec.readers exec)
  in
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
    (Disk.stats (Store.disk store)).Disk.reads;
  Exec.shutdown exec

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
    Alcotest.test_case "intra-query chunked = sequential" `Quick
      test_intra_query_determinism;
    Alcotest.test_case "per-reader stats sum to registry" `Quick
      test_stats_parity;
    Alcotest.test_case "atomic counters exact under 4 domains" `Quick
      test_atomic_counters_exact;
    Alcotest.test_case "reader handle isolates statistics" `Quick
      test_reader_isolation;
  ]
