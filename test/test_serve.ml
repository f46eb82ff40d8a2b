(** Streaming evaluation and the multi-tenant query service.

    The streaming cursor must be byte-identical to materialized
    evaluation — across all three semantics, quarantined stores, the
    run-index/summary toggle lattice and chunk sizes — while keeping
    buffered-result memory bounded
    and releasing its epoch pin on early close.  The service must be
    answer-correct per tenant, weighted-fair under flooding, and shed
    (never drop) work past the admission bound. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Db_file = Dolx_core.Db_file
module Disk = Dolx_storage.Disk
module Epoch = Dolx_storage.Epoch
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Pattern = Dolx_nok.Pattern
module Xpath = Dolx_nok.Xpath
module Update = Dolx_core.Update
module Serve = Dolx_serve.Serve
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

let pin_count store = Epoch.pin_count (Disk.epoch (Store.disk store))

(* A seeded pool of queries exercising child steps, descendant chains
   and predicates, plus the Query_mix generator's output. *)
let queries ~subjects ~seed =
  let mix = Query_mix.generate ~n:8 ~subjects ~seed () in
  List.map (fun e -> (e.Query_mix.xpath, semantics e.Query_mix.semantics)) mix
  @ [
      ("//item", Engine.Insecure);
      ("//item/name", Engine.Secure 1);
      ("//region//item[name]", Engine.Secure_path 2);
      ("/site/people/person", Engine.Secure 0);
    ]

(* --- stream vs run: answers and statistics, across the lattice --- *)

(* The naive oracle's answers, with the subject's accessibility on this
   handle (quarantined ranges deny) as the predicate.  [run] drains
   [stream], so stream = run holds by construction; the oracle is what
   keeps these checks meaningful. *)
let oracle store xpath sem =
  let tree = Store.tree store in
  let access s =
    let acc = Array.init (Tree.size tree) (Store.accessible store ~subject:s) in
    fun v -> acc.(v)
  in
  let rsem =
    match sem with
    | Engine.Insecure -> Reference.Any
    | Engine.Secure s -> Reference.Bound (access s)
    | Engine.Secure_path s -> Reference.Path (access s)
  in
  Reference.eval tree rsem (Dolx_nok.Xpath.parse xpath)

let stream_vs_run ?chunk name store index xpath sem =
  let expected = Engine.query store index xpath sem in
  check Alcotest.(list int) (name ^ ": oracle") (oracle store xpath sem)
    expected.Engine.answers;
  let st = Engine.stream ?chunk store index (Dolx_nok.Xpath.parse xpath) sem in
  let got = Engine.stream_collect st in
  check Alcotest.(list int) (name ^ ": answers") expected.Engine.answers got;
  check Alcotest.int (name ^ ": scanned") expected.Engine.candidates_scanned
    (Engine.stream_scanned st);
  check Alcotest.int (name ^ ": joins") expected.Engine.joins
    (Engine.stream_joins st);
  check Alcotest.int (name ^ ": segments") expected.Engine.segments
    (Engine.stream_segments st);
  check Alcotest.int (name ^ ": emitted") (List.length expected.Engine.answers)
    (Engine.stream_emitted st);
  check Alcotest.bool (name ^ ": finished") true (Engine.stream_finished st)

let test_stream_vs_run () =
  List.iter
    (fun doc_seed ->
      let store, index = make_store doc_seed in
      List.iteri
        (fun i (xpath, sem) ->
          stream_vs_run
            (Printf.sprintf "doc %d q%d %s" doc_seed i xpath)
            store index xpath sem)
        (queries ~subjects:6 ~seed:(doc_seed * 7)))
    [ 41; 42; 43 ]

let test_stream_vs_run_quarantined () =
  let store, index = make_quarantined_store 77 in
  List.iteri
    (fun i (xpath, sem) ->
      stream_vs_run (Printf.sprintf "quarantined q%d %s" i xpath) store index
        xpath sem)
    (queries ~subjects:4 ~seed:900)

(* The run-index / path-summary toggle lattice: the stream must agree
   with run under every handle configuration. *)
let test_stream_toggle_lattice () =
  let store, index = make_store 55 in
  let combos = [ (true, true); (false, true); (true, false); (false, false) ] in
  List.iter
    (fun (runs, summary) ->
      Store.set_run_index store runs;
      Store.set_summary store summary;
      List.iteri
        (fun i (xpath, sem) ->
          stream_vs_run
            (Printf.sprintf "lattice(%b,%b) q%d" runs summary i)
            store index xpath sem)
        (queries ~subjects:6 ~seed:414))
    combos;
  Store.set_run_index store true;
  Store.set_summary store true

(* Chunk size must not change the emitted sequence, and buffered-result
   memory must stay bounded by the chunk, not the answer count. *)
let test_stream_chunk_sizes () =
  let store, index = make_store 66 in
  let xpath = "//text" in
  let expected = (Engine.query store index xpath Engine.Insecure).Engine.answers in
  check Alcotest.(list int) "oracle" (oracle store xpath Engine.Insecure) expected;
  check Alcotest.bool "enough answers to stream" true
    (List.length expected > 64);
  List.iter
    (fun chunk ->
      let st =
        Engine.stream ~chunk store index (Dolx_nok.Xpath.parse xpath)
          Engine.Insecure
      in
      let got = Engine.stream_collect st in
      check Alcotest.(list int)
        (Printf.sprintf "chunk %d answers" chunk)
        expected got;
      check Alcotest.bool
        (Printf.sprintf "chunk %d peak %d bounded" chunk
           (Engine.stream_peak_buffered st))
        true
        (Engine.stream_peak_buffered st < List.length expected))
    [ 1; 7; 16 ]

(* Early close: counters flush once, with the partial tallies; further
   pulls return nothing. *)
let test_stream_early_close () =
  let store, index = make_store 31 in
  let q_before = Dolx_obs.Metrics.counter_value "engine.queries" in
  let st =
    Engine.stream ~chunk:8 store index (Dolx_nok.Xpath.parse "//item")
      Engine.Insecure
  in
  let first = Engine.stream_next st in
  check Alcotest.int "one chunk pulled" 8 (List.length first);
  Engine.stream_close st;
  Engine.stream_close st;
  check Alcotest.(list int) "closed stream yields nothing" []
    (Engine.stream_next st);
  check Alcotest.int "one query counted, once"
    (q_before + 1)
    (Dolx_obs.Metrics.counter_value "engine.queries")

(* --- the service: per-tenant answer correctness --- *)

let test_serve_answers () =
  let store_a, index_a = make_store 101 in
  let store_b, index_b = make_store ~nodes:1800 102 in
  Serve.with_service ~jobs:3 ~chunk:32 (fun srv ->
      Serve.add_tenant srv "alpha" (Serve.Mem (store_a, index_a));
      Serve.add_tenant srv "beta" (Serve.Mem (store_b, index_b));
      let qs = queries ~subjects:6 ~seed:77 in
      let tickets =
        List.concat_map
          (fun (xpath, sem) ->
            [
              (store_a, index_a, xpath, sem, Serve.submit srv ~tenant:"alpha" xpath sem);
              (store_b, index_b, xpath, sem, Serve.submit srv ~tenant:"beta" xpath sem);
            ])
          qs
      in
      List.iteri
        (fun i (store, index, xpath, sem, tk) ->
          let expected = (Engine.query store index xpath sem).Engine.answers in
          check Alcotest.(list int)
            (Printf.sprintf "serve q%d %s" i xpath)
            expected (Serve.collect tk))
        tickets;
      let stats = Serve.stats srv in
      check Alcotest.int "all served" (List.length tickets) stats.Serve.served;
      check Alcotest.int "nothing shed" 0 stats.Serve.shed)

(* A worker-side failure (malformed query) surfaces through the ticket,
   and the service keeps serving. *)
let test_serve_error_propagates () =
  let store, index = make_store 33 in
  Serve.with_service ~jobs:1 (fun srv ->
      Serve.add_tenant srv "t" (Serve.Mem (store, index));
      let bad = Serve.submit srv ~tenant:"t" "//item[" Engine.Insecure in
      (match Serve.collect bad with
      | exception _ -> ()
      | _ -> Alcotest.fail "malformed query did not error");
      let ok = Serve.submit srv ~tenant:"t" "//item" Engine.Insecure in
      check Alcotest.(list int) "service still serves"
        (Engine.query store index "//item" Engine.Insecure).Engine.answers
        (Serve.collect ok))

(* --- epoch pins: drained and early-closed streams both release --- *)

let test_serve_releases_epoch_pins () =
  let store, index = make_store 21 in
  let baseline = pin_count store in
  Serve.with_service ~jobs:2 ~chunk:8 (fun srv ->
      Serve.add_tenant srv "t" (Serve.Mem (store, index));
      (* full drain *)
      let tk = Serve.submit srv ~tenant:"t" "//item" (Engine.Secure 1) in
      ignore (Serve.collect tk);
      Serve.await_release tk;
      check Alcotest.int "drained stream released its pin" baseline
        (pin_count store);
      (* early close after one chunk *)
      let tk = Serve.submit srv ~tenant:"t" "//item" Engine.Insecure in
      let first = Serve.next_chunk tk in
      check Alcotest.bool "got a first chunk" true (first <> []);
      Serve.close tk;
      Serve.await_release tk;
      check Alcotest.int "closed stream released its pin" baseline
        (pin_count store);
      (* the worker slot is free again: the next query completes *)
      let tk = Serve.submit srv ~tenant:"t" "//site" Engine.Insecure in
      ignore (Serve.collect tk));
  check Alcotest.int "shutdown leaves no pins" baseline (pin_count store)

(* --- fairness and admission control --- *)

(* Wedge the single worker: buffer_chunks=1 and an undrained multi-chunk
   query block it inside ticket_push, so submissions queue
   deterministically behind it. *)
let with_blocked_worker store index ~max_queued f =
  Serve.with_service ~jobs:1 ~chunk:4 ~buffer_chunks:1 ~max_queued (fun srv ->
      Serve.add_tenant srv "flood" (Serve.Mem (store, index));
      Serve.add_tenant srv "light" (Serve.Mem (store, index));
      let blocker = Serve.submit srv ~tenant:"flood" "//item" Engine.Insecure in
      (* wait until the worker has produced the first chunk — it is now
         blocked pushing the second *)
      let first = Serve.next_chunk blocker in
      check Alcotest.int "blocker first chunk" 4 (List.length first);
      f srv blocker)

let test_serve_fairness () =
  let store, index = make_store ~nodes:1200 7 in
  with_blocked_worker store index ~max_queued:1024 (fun srv blocker ->
      let flood =
        List.init 30 (fun _ ->
            Serve.submit srv ~tenant:"flood" "/site" Engine.Insecure)
      in
      let light =
        List.init 5 (fun _ ->
            Serve.submit srv ~tenant:"light" "/site" Engine.Insecure)
      in
      (* release the worker; every queued job now drains under WFQ *)
      ignore (Serve.collect blocker);
      List.iter (fun tk -> ignore (Serve.collect tk)) flood;
      List.iter (fun tk -> ignore (Serve.collect tk)) light;
      (* with equal weights the scheduler alternates between backlogged
         tenants: the light tenant's 5 jobs all finish within the first
         ~10 completions after the blocker, not after the flood's 30 *)
      let light_last =
        List.fold_left
          (fun acc tk -> max acc (Serve.completion_seq tk))
          (-1) light
      in
      check Alcotest.bool
        (Printf.sprintf "light tenant not starved (last seq %d)" light_last)
        true
        (light_last <= 1 + (2 * 5) + 1);
      let stats = Serve.stats srv in
      check Alcotest.int "everything served" 36 stats.Serve.served)

let test_serve_weighted_fairness () =
  let store, index = make_store ~nodes:1200 8 in
  (* both tenants backlogged with 12 jobs each, but slow has weight 1 vs
     fast's 3: the heavier weight drains its backlog ~3x as fast *)
  Serve.with_service ~jobs:1 ~chunk:4 ~buffer_chunks:1 ~max_queued:1024
    (fun srv ->
      Serve.add_tenant srv "slow" (Serve.Mem (store, index));
      Serve.add_tenant srv ~weight:3.0 "fast" (Serve.Mem (store, index));
      let blocker = Serve.submit srv ~tenant:"slow" "//item" Engine.Insecure in
      let first = Serve.next_chunk blocker in
      check Alcotest.int "blocker first chunk" 4 (List.length first);
      let slow =
        List.init 12 (fun _ ->
            Serve.submit srv ~tenant:"slow" "/site" Engine.Insecure)
      in
      let fast =
        List.init 12 (fun _ ->
            Serve.submit srv ~tenant:"fast" "/site" Engine.Insecure)
      in
      ignore (Serve.collect blocker);
      List.iter (fun tk -> ignore (Serve.collect tk)) slow;
      List.iter (fun tk -> ignore (Serve.collect tk)) fast;
      let last tks =
        List.fold_left (fun acc tk -> max acc (Serve.completion_seq tk)) (-1) tks
      in
      let fast_last = last fast and slow_last = last slow in
      check Alcotest.bool
        (Printf.sprintf "weight-3 tenant drains first (fast %d vs slow %d)"
           fast_last slow_last)
        true
        (fast_last < slow_last);
      (* 12 fast jobs at weight 3 interleave with ~4 slow ones *)
      check Alcotest.bool
        (Printf.sprintf "weight-3 backlog done by seq %d" fast_last)
        true (fast_last <= 1 + 12 + 6))

let test_serve_admission_control () =
  let store, index = make_store ~nodes:1200 9 in
  with_blocked_worker store index ~max_queued:6 (fun srv blocker ->
      (* fill the queue to the admission bound *)
      let accepted =
        List.init 6 (fun _ ->
            Serve.submit srv ~tenant:"light" "/site" Engine.Insecure)
      in
      (* past the bound: shed with Overloaded, not accepted, not dropped *)
      (match Serve.submit srv ~tenant:"flood" "/site" Engine.Insecure with
      | exception Serve.Overloaded -> ()
      | _ -> Alcotest.fail "submission past the bound was not shed");
      let stats = Serve.stats srv in
      check Alcotest.int "shed counted" 1 stats.Serve.shed;
      check Alcotest.int "queue at the bound" 6 stats.Serve.queued;
      (* every accepted job still completes with correct answers *)
      ignore (Serve.collect blocker);
      let expected = (Engine.query store index "/site" Engine.Insecure).Engine.answers in
      List.iter
        (fun tk ->
          check Alcotest.(list int) "accepted job served" expected
            (Serve.collect tk))
        accepted;
      let stats = Serve.stats srv in
      check Alcotest.int "all accepted served" 7 stats.Serve.served)

(* Shutdown must fail queued-but-never-run jobs loudly. *)
let test_serve_shutdown_fails_queued () =
  let store, index = make_store ~nodes:1200 11 in
  let queued = ref [] in
  Serve.with_service ~jobs:1 ~chunk:4 ~buffer_chunks:1 (fun srv ->
      Serve.add_tenant srv "t" (Serve.Mem (store, index));
      let blocker = Serve.submit srv ~tenant:"t" "//item" Engine.Insecure in
      ignore (Serve.next_chunk blocker);
      queued :=
        List.init 3 (fun _ ->
            Serve.submit srv ~tenant:"t" "/site" Engine.Insecure));
  check Alcotest.int "three queued tickets" 3 (List.length !queued);
  List.iter
    (fun tk ->
      match Serve.collect tk with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "queued job silently dropped at shutdown")
    !queued

(* --- Db_file-backed shards: open on demand, LRU-evict when idle --- *)

let test_serve_shard_lru () =
  let mk seed =
    let store, index = make_store ~nodes:1200 ~subjects:4 seed in
    let path = Filename.temp_file "dolx_shard" ".dolx" in
    Db_file.save path store;
    (path, store, index)
  in
  let shards = List.map mk [ 201; 202; 203 ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (p, _, _) -> Sys.remove p) shards)
    (fun () ->
      Serve.with_service ~jobs:1 ~shard_cap:2 (fun srv ->
          List.iteri
            (fun i (path, _, _) ->
              Serve.add_tenant srv (Printf.sprintf "t%d" i) (Serve.Db path))
            shards;
          let ask tenant (_, store, index) =
            let expected =
              (Engine.query store index "//item" (Engine.Secure 1)).Engine.answers
            in
            let tk = Serve.submit srv ~tenant "//item" (Engine.Secure 1) in
            check Alcotest.(list int) (tenant ^ " answers from Db shard")
              expected (Serve.collect tk)
          in
          let s = Array.of_list shards in
          ask "t0" s.(0);
          ask "t1" s.(1);
          ask "t2" s.(2);
          (* t0 was evicted to admit t2; asking again reopens it *)
          ask "t0" s.(0);
          let stats = Serve.stats srv in
          check Alcotest.int "four Db opens" 4 stats.Serve.shard_opens;
          check Alcotest.bool
            (Printf.sprintf "evictions happened (%d)" stats.Serve.shard_evictions)
            true
            (stats.Serve.shard_evictions >= 2);
          check Alcotest.bool
            (Printf.sprintf "open shards bounded (%d)" stats.Serve.open_shards)
            true
            (stats.Serve.open_shards <= 2)))

(* --- the summary-path stream is lazy --- *)

(* The summary-path plan walks its candidates only as answers are
   pulled: after one chunk, the stream has qualified O(chunk) nodes and
   walked (and pruned) a small share of the postings, and closing it
   early reports only that share of [engine.candidates_pruned]. *)
let test_summary_stream_lazy () =
  let store, index = make_store ~nodes:50000 ~subjects:4 88 in
  check Alcotest.bool "document size" true (Tree.size (Store.tree store) >= 20000);
  let pattern = Dolx_nok.Xpath.parse "//item//text" in
  let sem = Engine.Secure 2 in
  let pruned () = Dolx_obs.Metrics.counter_value "engine.candidates_pruned" in
  let chunk = 64 in
  let before = pruned () in
  let full = Engine.stream ~chunk store index pattern sem in
  let answers = Engine.stream_collect full in
  let full_pruned = pruned () - before in
  let full_scanned = Engine.stream_scanned full in
  check Alcotest.int "summary-path plan (no joins)" 0 (Engine.stream_joins full);
  check Alcotest.bool
    (Printf.sprintf "answers span many chunks (%d)" (List.length answers))
    true
    (List.length answers > 10 * chunk);
  check Alcotest.bool
    (Printf.sprintf "the drain prunes (%d)" full_pruned)
    true (full_pruned > 10 * chunk);
  let before = pruned () in
  let st = Engine.stream ~chunk store index pattern sem in
  let first = Engine.stream_next st in
  check Alcotest.(list int) "first chunk" (List.filteri (fun i _ -> i < chunk) answers)
    first;
  let scanned = Engine.stream_scanned st in
  Engine.stream_close st;
  let part_pruned = pruned () - before in
  check Alcotest.bool
    (Printf.sprintf "scanned %d after one chunk, O(chunk), of %d" scanned full_scanned)
    true
    (scanned <= 4 * chunk && 10 * scanned < full_scanned);
  check Alcotest.bool
    (Printf.sprintf "pruned %d at early close, of %d" part_pruned full_pruned)
    true
    (part_pruned <= 4 * chunk && 10 * part_pruned < full_pruned)

(* Nested same-tag steps on random trees: the summary-path stream, at
   any chunk size and closed early at any chunk, yields a prefix of the
   summary-off, runs-off answers, and all of them when drained. *)
let prop_summary_stream_prefix =
  let queries = [| "//a//a"; "//a/b//a"; "//a//b//a" |] in
  Fixtures.qtest ~count:150 "summary-path stream = prefix of the segment plan"
    QCheck2.Gen.(
      pair
        (triple (int_bound 100_000) (int_range 1 300) (int_range 1 70))
        (triple (int_bound 8) (int_bound 2) (int_bound 10)))
    (fun ((seed, nodes, chunk), (q, sem_ix, close_at)) ->
      let tree = Dolx_fuzz.Gen.tree ~seed ~nodes in
      let n = Tree.size tree in
      let rng = Dolx_util.Prng.create (seed + 1) in
      let p = float_of_int (1 + Dolx_util.Prng.int rng 9) /. 10.0 in
      let dol =
        Dol.of_bool_array (Array.init n (fun _ -> Dolx_util.Prng.bool rng ~p))
      in
      let store = Store.create ~page_size:128 ~pool_capacity:4 tree dol in
      let index = Tag_index.build tree in
      let xpath = queries.(q mod Array.length queries) in
      let sem =
        match sem_ix with
        | 0 -> Engine.Insecure
        | 1 -> Engine.Secure 0
        | _ -> Engine.Secure_path 0
      in
      Store.set_summary store false;
      Store.set_run_index store false;
      let expected = (Engine.query store index xpath sem).Engine.answers in
      Store.set_summary store true;
      Store.set_run_index store true;
      let stream () = Engine.stream ~chunk store index (Dolx_nok.Xpath.parse xpath) sem in
      let rec pull st k acc =
        if k = 0 then List.concat (List.rev acc)
        else
          match Engine.stream_next st with
          | [] -> List.concat (List.rev acc)
          | c ->
              if List.length c > chunk then QCheck2.Test.fail_report "chunk too long";
              pull st (k - 1) (c :: acc)
      in
      let drained = pull (stream ()) max_int [] in
      let st = stream () in
      let part = pull st close_at [] in
      Engine.stream_close st;
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      drained = expected && is_prefix part expected
      && List.length part = min (List.length expected) (close_at * chunk)
      && Engine.stream_next st = [])

(* The end mark is deterministic and comes after the pin release.  A
   chunk marked last is the one whose refill exhausted the source: with
   [n] answers and chunk [c], the last non-empty chunk carries the mark
   unless [c] divides [n], in which case an unmarked full chunk is
   followed by [([], true)].  Whoever holds the mark sees no pin of the
   query. *)
let test_ticket_end_mark () =
  let store, index = make_store ~nodes:1200 13 in
  let want q = (Engine.query store index q Engine.Insecure).Engine.answers in
  let n = List.length (want "//item") in
  check Alcotest.bool "a multi-answer query" true (n > 2);
  let baseline = pin_count store in
  List.iter
    (fun (q, chunk) ->
      Serve.with_service ~jobs:1 ~chunk (fun srv ->
          Serve.add_tenant srv "t" (Serve.Mem (store, index));
          let tk = Serve.submit srv ~tenant:"t" q Engine.Insecure in
          let rec pull acc marks =
            match Serve.next_chunk_last tk with
            | c, false -> pull (c :: acc) (false :: marks)
            | c, true ->
                check Alcotest.int
                  (Printf.sprintf "%s chunk %d: no pin once marked" q chunk)
                  baseline (pin_count store);
                let marks = if c = [] then marks else true :: marks in
                (List.concat (List.rev (c :: acc)), List.rev marks)
          in
          let got, marks = pull [] [] in
          let total = List.length (want q) in
          let chunks = (total + chunk - 1) / chunk in
          (* one entry per non-empty chunk: did it carry the mark? *)
          let expected_marks =
            List.init chunks (fun i -> i = chunks - 1 && total mod chunk <> 0)
          in
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "%s chunk %d: answers" q chunk)
            (want q) got;
          check (Alcotest.list Alcotest.bool)
            (Printf.sprintf "%s chunk %d: which pull held the mark" q chunk)
            expected_marks marks))
    [
      ("//item", 3); ("//item", n); ("//item", n - 1); ("//item", n + 1);
      ("//nosuchtag", 4);
    ]

(* --- batches: [run_batch] --- *)

(* Twigs whose returning node is not the last step have no XPath form;
   a batch carries patterns, so they run like any other query. *)
let test_batch_non_xpath_twigs () =
  let store, index = make_store 23 in
  let tag ?(axis = Pattern.Child) ?(returning = false) t kids =
    Pattern.make ~axis ~returning (Pattern.Tag t) kids
  in
  let twigs =
    [
      (* item, with a name child and a keyword below its description *)
      tag ~axis:Pattern.Descendant ~returning:true "item"
        [ tag "name" []; tag "description" [ tag ~axis:Pattern.Descendant "keyword" [] ] ];
      (* the description of an item with a name *)
      tag ~axis:Pattern.Descendant "item"
        [ tag "name" []; tag ~returning:true "description" [ tag ~axis:Pattern.Descendant "keyword" [] ] ];
      (* a person's name followed by a sibling *)
      tag ~axis:Pattern.Descendant "person"
        [ tag ~returning:true "name" [ tag ~axis:Pattern.Following_sibling "emailaddress" [] ] ];
    ]
  in
  let batch =
    List.concat_map
      (fun root ->
        let p = Pattern.of_root root in
        [ (p, Engine.Insecure); (p, Engine.Secure 1); (p, Engine.Secure_path 2) ])
      twigs
  in
  let want = List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) batch in
  if List.for_all (( = ) []) want then Alcotest.fail "every twig is empty";
  let got =
    Serve.with_service ~jobs:2 ~chunk:3 ~buffer_chunks:1 (fun srv ->
        Serve.add_tenant srv "t" (Serve.Mem (store, index));
        Serve.run_batch srv ~tenant:"t" batch)
  in
  List.iteri
    (fun i (w, g) ->
      check (Alcotest.list Alcotest.int) (Printf.sprintf "twig query %d" i) w g)
    (List.combine want got)

(* A batch longer than the admission bound waits for room instead of
   being shed. *)
let test_batch_within_admission () =
  let store, index = make_store 29 in
  let batch =
    List.map (fun (q, sem) -> (Xpath.parse q, sem)) (queries ~subjects:6 ~seed:31)
  in
  let batch = batch @ batch @ batch in
  let want = List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) batch in
  Serve.with_service ~jobs:2 ~max_queued:2 ~chunk:16 ~buffer_chunks:1 (fun srv ->
      Serve.add_tenant srv "t" (Serve.Mem (store, index));
      let got = Serve.run_batch srv ~tenant:"t" batch in
      check (Alcotest.list (Alcotest.list Alcotest.int)) "answers" want got;
      let st = Serve.stats srv in
      check Alcotest.int "nothing shed" 0 st.Serve.shed;
      check Alcotest.int "every query served" (List.length batch) st.Serve.served;
      check Alcotest.int "no pin left" 0 (Serve.pinned_readers srv))

(* A tenant over a pinned reader serves that reader's snapshot: each
   query's own reader pins the same epoch, so a batch after an update
   window answers as one before it, while a tenant over the live store
   sees the update. *)
let test_batch_over_pinned_reader () =
  let store, index = make_store 37 in
  let batch = [ (Xpath.parse "//item", Engine.Secure 0) ] in
  let pre = List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) batch in
  Store.with_reader store (fun pinned ->
      Serve.with_service ~jobs:2 (fun srv ->
          Serve.add_tenant srv "pinned" (Serve.Mem (pinned, index));
          Serve.add_tenant srv "live" (Serve.Mem (store, index));
          check (Alcotest.list (Alcotest.list Alcotest.int)) "before the update" pre
            (Serve.run_batch srv ~tenant:"pinned" batch);
          Update.set_subtree_accessibility store ~subject:0 ~grant:false
            (List.hd (List.hd pre));
          let live = Serve.run_batch srv ~tenant:"live" batch in
          if live = pre then Alcotest.fail "the update changed no answer";
          check (Alcotest.list (Alcotest.list Alcotest.int)) "after the update" pre
            (Serve.run_batch srv ~tenant:"pinned" batch)));
  check Alcotest.int "pins released" 0 (pin_count store)

let suite =
  [
    Alcotest.test_case "stream = run (3 docs x mixed queries)" `Quick
      test_stream_vs_run;
    Alcotest.test_case "stream = run on a quarantined store" `Quick
      test_stream_vs_run_quarantined;
    Alcotest.test_case "stream = run across the toggle lattice" `Quick
      test_stream_toggle_lattice;
    Alcotest.test_case "chunk size invariance + bounded buffering" `Quick
      test_stream_chunk_sizes;
    Alcotest.test_case "early close flushes counters once" `Quick
      test_stream_early_close;
    Alcotest.test_case "service: per-tenant answers correct" `Quick
      test_serve_answers;
    Alcotest.test_case "service: worker error surfaces via ticket" `Quick
      test_serve_error_propagates;
    Alcotest.test_case "service: epoch pins released (drain + close)" `Quick
      test_serve_releases_epoch_pins;
    Alcotest.test_case "service: flooding tenant cannot starve" `Quick
      test_serve_fairness;
    Alcotest.test_case "service: weights skew the schedule" `Quick
      test_serve_weighted_fairness;
    Alcotest.test_case "service: admission sheds with Overloaded" `Quick
      test_serve_admission_control;
    Alcotest.test_case "service: shutdown fails queued jobs loudly" `Quick
      test_serve_shutdown_fails_queued;
    Alcotest.test_case "service: Db shards open on demand + LRU evict" `Quick
      test_serve_shard_lru;
    Alcotest.test_case "summary-path stream walks candidates lazily" `Quick
      test_summary_stream_lazy;
    prop_summary_stream_prefix;
    Alcotest.test_case "ticket: end mark on the exhausting chunk" `Quick
      test_ticket_end_mark;
    Alcotest.test_case "batch: twigs without an XPath form" `Quick
      test_batch_non_xpath_twigs;
    Alcotest.test_case "batch: longer than max_queued, never shed" `Quick
      test_batch_within_admission;
    Alcotest.test_case "batch: a pinned-reader tenant keeps its snapshot" `Quick
      test_batch_over_pinned_reader;
  ]
