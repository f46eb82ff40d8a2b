(** Observability layer: metrics registry, histograms vs exact
    percentiles, span tracing with a deterministic clock, JSON
    round-trips, and the fold of per-instance counts into the registry:
    after every fold point (query end, early close, update window,
    [Exec] barrier, reader release after a fault) the registry equals
    the per-instance records. *)

module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace
module Json = Dolx_obs.Json
module Stats = Dolx_util.Stats
module Prng = Dolx_util.Prng
module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Disk = Dolx_storage.Disk
module Buffer_pool = Dolx_storage.Buffer_pool
module Exec = Dolx_exec.Exec
module Engine = Dolx_nok.Engine
module Tag_index = Dolx_index.Tag_index
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

(* --- registry basics --- *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.a" in
  check Alcotest.int "fresh counter is 0" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  check Alcotest.int "incr + add" 7 (Metrics.count c);
  check Alcotest.string "name" "test.a" (Metrics.counter_name c);
  (* get-or-create: same name yields the same cell *)
  let c' = Metrics.counter ~reg "test.a" in
  Metrics.incr c';
  check Alcotest.int "aliased handle" 8 (Metrics.count c);
  check Alcotest.int "by-name lookup" 8 (Metrics.counter_value ~reg "test.a");
  check Alcotest.int "absent name is 0" 0 (Metrics.counter_value ~reg "test.b");
  Alcotest.(check bool) "find_counter present" true
    (Metrics.find_counter ~reg "test.a" <> None);
  Metrics.reset reg;
  check Alcotest.int "reset zeroes" 0 (Metrics.count c);
  Metrics.incr c;
  check Alcotest.int "handle survives reset" 1 (Metrics.count c)

(* --- histograms --- *)

let test_histogram_exact_matches_stats () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~reg "test.lat" in
  let rng = Prng.create 7 in
  let samples =
    List.init 400 (fun _ -> (Prng.float rng *. 1000.0) +. 0.001)
  in
  List.iter (Metrics.observe h) samples;
  (* under the reservoir cap: exact nearest-rank, bit-for-bit *)
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%.0f exact" p)
        (Stats.percentile p samples) (Metrics.percentile h p))
    [ 0.0; 25.0; 50.0; 95.0; 99.0; 100.0 ];
  let s = Metrics.summary h in
  check Alcotest.int "count" 400 s.Metrics.count;
  check (Alcotest.float 1e-6) "sum" (List.fold_left ( +. ) 0.0 samples)
    s.Metrics.sum

let test_histogram_approx_within_bucket () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~reg "test.big" in
  let rng = Prng.create 11 in
  let n = 4 * Metrics.reservoir_cap in
  let samples = List.init n (fun _ -> (Prng.float rng *. 10_000.0) +. 1.0) in
  List.iter (Metrics.observe h) samples;
  check Alcotest.int "overflowed the reservoir" n (Metrics.observations h);
  (* beyond the reservoir: bucket resolution is a factor of two *)
  List.iter
    (fun p ->
      let exact = Stats.percentile p samples in
      let approx = Metrics.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within 2x (exact %.1f approx %.1f)" p exact
           approx)
        true
        (approx >= exact /. 2.0 && approx <= exact *. 2.0))
    [ 10.0; 50.0; 90.0; 99.0 ]

let test_histogram_dropped_and_zeros () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~reg "test.weird" in
  Metrics.observe h nan;
  Metrics.observe h infinity;
  Metrics.observe h 0.0;
  Metrics.observe h (-3.0);
  Metrics.observe h 8.0;
  let s = Metrics.summary h in
  check Alcotest.int "non-finite dropped" 2 s.Metrics.dropped;
  check Alcotest.int "finite counted" 3 s.Metrics.count;
  check (Alcotest.float 0.0) "min" (-3.0) s.Metrics.min;
  check (Alcotest.float 0.0) "max" 8.0 s.Metrics.max;
  let empty = Metrics.histogram ~reg "test.empty" in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Metrics.percentile empty 50.0))

(* --- tracing --- *)

(* A deterministic clock: every reading advances time by 1.0s. *)
let counter_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let test_span_nesting_and_timing () =
  let c = Trace.create ~enabled:true ~metrics:(Metrics.create ()) () in
  Trace.set_clock ~c (counter_clock ());
  Trace.reset ~c ();
  let r =
    Trace.with_span ~c "outer" (fun () ->
        Trace.with_span ~c "inner" (fun () -> ());
        Trace.with_span ~c "inner" (fun () -> ());
        42)
  in
  check Alcotest.int "body result returned" 42 r;
  match Trace.spans c with
  | [ outer; i1; i2 ] ->
      check Alcotest.string "outer name" "outer" outer.Trace.name;
      check Alcotest.int "outer depth" 0 outer.Trace.depth;
      check Alcotest.int "inner depth" 1 i1.Trace.depth;
      check Alcotest.int "inner depth" 1 i2.Trace.depth;
      (* seq is start order: outer starts before its children *)
      Alcotest.(check bool) "seq ordering" true
        (outer.Trace.seq < i1.Trace.seq && i1.Trace.seq < i2.Trace.seq);
      (* each leaf span reads the clock twice -> dur exactly 1.0 *)
      check (Alcotest.float 0.0) "inner dur" 1.0 i1.Trace.dur;
      check (Alcotest.float 0.0) "inner dur" 1.0 i2.Trace.dur;
      (* outer encloses both children plus its own clock reads *)
      check (Alcotest.float 0.0) "outer dur" 5.0 outer.Trace.dur;
      Alcotest.(check bool) "monotone starts" true
        (outer.Trace.start <= i1.Trace.start
        && i1.Trace.start < i2.Trace.start)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_exception_safety () =
  let c = Trace.create ~enabled:true ~metrics:(Metrics.create ()) () in
  Trace.set_clock ~c (counter_clock ());
  Trace.reset ~c ();
  (match Trace.with_span ~c "boom" (fun () -> failwith "kaboom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> check Alcotest.string "exception propagates" "kaboom" m);
  check Alcotest.int "span recorded despite raise" 1 (Trace.span_count c);
  (* depth unwound: a following span sits at depth 0 *)
  Trace.with_span ~c "after" (fun () -> ());
  match List.rev (Trace.spans c) with
  | { Trace.name = "after"; depth = 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "depth not restored after exception"

let test_span_disabled_records_nothing () =
  let c = Trace.create ~enabled:false ~metrics:(Metrics.create ()) () in
  Trace.with_span ~c "ghost" (fun () -> ());
  check Alcotest.int "nothing recorded" 0 (Trace.span_count c)

let test_spans_feed_histograms () =
  let reg = Metrics.create () in
  let c = Trace.create ~enabled:true ~metrics:reg () in
  Trace.set_clock ~c (counter_clock ());
  Trace.reset ~c ();
  Trace.with_span ~c "phase" (fun () -> ());
  Trace.with_span ~c "phase" (fun () -> ());
  let h = Metrics.histogram ~reg "span.phase" in
  check Alcotest.int "two observations" 2 (Metrics.observations h);
  (* dur 1.0s -> 1e6 us *)
  check (Alcotest.float 0.0) "microseconds" 1e6 (Metrics.percentile h 50.0)

(* --- JSON --- *)

let test_json_roundtrip () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "rt.count" in
  Metrics.add c 42;
  Metrics.gauge_add (Metrics.gauge ~reg "rt.gauge") 2.5;
  let h = Metrics.histogram ~reg "rt.hist" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let s = Metrics.to_json_string reg in
  let parsed = Json.parse s in
  let get path =
    List.fold_left
      (fun acc k ->
        match Option.bind acc (Json.member k) with
        | Some v -> Some v
        | None -> Alcotest.failf "missing %s in %s" k s)
      (Some parsed) path
  in
  check
    Alcotest.(option int)
    "counter round-trips" (Some 42)
    (Option.bind (get [ "counters"; "rt.count" ]) Json.to_int);
  check
    Alcotest.(option (float 0.0))
    "gauge round-trips" (Some 2.5)
    (Option.bind (get [ "gauges"; "rt.gauge" ]) Json.to_float);
  check
    Alcotest.(option int)
    "histogram count" (Some 4)
    (Option.bind (get [ "histograms"; "rt.hist"; "count" ]) Json.to_int);
  check
    Alcotest.(option (float 0.0))
    "histogram sum" (Some 10.0)
    (Option.bind (get [ "histograms"; "rt.hist"; "sum" ]) Json.to_float);
  (* an empty histogram's nan percentiles must serialize as null *)
  ignore (Metrics.histogram ~reg "rt.empty");
  let parsed2 = Json.parse (Metrics.to_json_string reg) in
  (match
     Option.bind (Json.member "histograms" parsed2) (Json.member "rt.empty")
     |> Fun.flip Option.bind (Json.member "p50")
   with
  | Some Json.Null -> ()
  | other -> Alcotest.failf "expected null p50, got %s"
               (match other with Some v -> Json.to_string v | None -> "missing"));
  (* serializer output is itself strictly parseable (idempotent) *)
  check Alcotest.string "print/parse/print fixpoint" s
    (Json.to_string (Json.parse s))

let test_json_parser_strictness () =
  let rejects what input =
    match Json.parse input with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Json.Parse_error _ -> ()
  in
  rejects "empty" "";
  rejects "trailing garbage" "{} x";
  rejects "unterminated string" "\"abc";
  rejects "bare nan" "nan";
  rejects "single quote" "'a'";
  rejects "unclosed object" "{\"a\": 1";
  rejects "trailing comma" "[1, 2,]";
  check Alcotest.string "escapes round-trip"
    "\"a\\\"b\\\\c\\n\""
    (Json.to_string (Json.parse "\"a\\\"b\\\\c\\n\""))

let test_trace_json () =
  let c = Trace.create ~enabled:true ~metrics:(Metrics.create ()) () in
  Trace.set_clock ~c (counter_clock ());
  Trace.reset ~c ();
  Trace.with_span ~c "a" (fun () -> Trace.with_span ~c "b" (fun () -> ()));
  let parsed = Json.parse (Json.to_string (Trace.to_json ~c ())) in
  match parsed with
  | Json.Arr [ a; b ] ->
      check
        Alcotest.(option string)
        "first span name" (Some "a")
        (match Json.member "name" a with Some (Json.Str s) -> Some s | _ -> None);
      check
        Alcotest.(option int)
        "child depth" (Some 1)
        (Option.bind (Json.member "depth" b) Json.to_int)
  | _ -> Alcotest.fail "expected a 2-span array"

(* --- the fold: registry = per-instance records at every fold point --- *)

(* Pool and check counts summed over [handles], disk counts once (the
   handles share one disk), each against its registry counter. *)
let check_folded label handles disk =
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 handles in
  let io f = sum (fun h -> f (Store.io_stats h)) in
  let pool f = sum (fun h -> f (Buffer_pool.stats (Store.pool h))) in
  let ds = Disk.stats disk in
  List.iter
    (fun (name, expected) ->
      check Alcotest.int (label ^ ": " ^ name) expected
        (Metrics.counter_value name))
    [
      ("pool.touches", io (fun s -> s.Store.page_touches));
      ("pool.hits", io (fun s -> s.Store.pool_hits));
      ("pool.misses", io (fun s -> s.Store.pool_misses));
      ("pool.retries", pool (fun s -> s.Buffer_pool.retries));
      ("pool.evictions", pool (fun s -> s.Buffer_pool.evictions));
      ("store.access_checks", io (fun s -> s.Store.access_checks));
      ("store.header_skips", io (fun s -> s.Store.header_skips));
      ("store.codebook_lookups", io (fun s -> s.Store.codebook_lookups));
      ("store.run_answers", io (fun s -> s.Store.run_answers));
      ("disk.reads", ds.Disk.reads);
      ("disk.writes", ds.Disk.writes);
      ("disk.transient_faults", ds.Disk.transient_faults);
    ];
  check (Alcotest.float 0.0) (label ^ ": disk.simulated_us")
    (Disk.simulated_us disk)
    (Metrics.gauge_value (Metrics.gauge "disk.simulated_us"))

let table1_store () =
  let tree = Xmark.generate_nodes ~seed:71 4_000 in
  let params =
    { Dolx_workload.Synth_acl.propagation_ratio = 0.1;
      accessibility_ratio = 0.7; sibling_copy_p = 0.5 }
  in
  let bools = Synth_acl.generate_bool tree ~params (Prng.create 72) in
  bools.(0) <- true;
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:1024 ~pool_capacity:16 tree dol in
  (store, Tag_index.build tree)

(* Both views start at zero: the store first (its reset folds what is
   pending), then the registry. *)
let reset_views store =
  Store.reset_stats store;
  Metrics.reset Metrics.default

(* Queries on the live handle fold at each stream's end, so after a
   Table-1 run the two views are equal. *)
let test_counter_parity_on_table1_run () =
  let store, index = table1_store () in
  reset_views store;
  List.iter
    (fun (_, q) ->
      ignore (Engine.query store index q (Engine.Secure 0));
      ignore (Engine.query store index q (Engine.Insecure)))
    Xmark.queries;
  let io = Store.io_stats store in
  let v name = Metrics.counter_value name in
  check Alcotest.int "page_touches" io.Store.page_touches (v "pool.touches");
  check Alcotest.int "pool_hits" io.Store.pool_hits (v "pool.hits");
  check Alcotest.int "pool_misses" io.Store.pool_misses (v "pool.misses");
  check Alcotest.int "disk_reads" io.Store.disk_reads (v "disk.reads");
  check Alcotest.int "disk_writes" io.Store.disk_writes (v "disk.writes");
  check Alcotest.int "access_checks" io.Store.access_checks
    (v "store.access_checks");
  check Alcotest.int "header_skips" io.Store.header_skips
    (v "store.header_skips");
  check Alcotest.int "codebook_lookups" io.Store.codebook_lookups
    (v "store.codebook_lookups");
  check Alcotest.int "run_answers" io.Store.run_answers
    (v "store.run_answers");
  check Alcotest.int "queries counted" (2 * List.length Xmark.queries)
    (v "engine.queries");
  check_folded "table-1" [ store ] (Store.disk store);
  Alcotest.(check bool) "work happened" true (io.Store.page_touches > 0)

(* [stream_close] after the first chunk folds the partial work. *)
let test_fold_on_early_close () =
  let store, index = table1_store () in
  reset_views store;
  let r = Store.reader store in
  let st =
    Engine.stream ~chunk:4 r index (Dolx_nok.Xpath.parse "//keyword")
      (Engine.Secure 0)
  in
  check Alcotest.int "first chunk full" 4 (List.length (Engine.stream_next st));
  Alcotest.(check bool) "more to come" false (Engine.stream_finished st);
  Engine.stream_close st;
  check_folded "early close" [ r ] (Store.disk store);
  check Alcotest.int "query counted" 1 (Metrics.counter_value "engine.queries");
  Alcotest.(check bool) "work happened" true
    ((Store.io_stats r).Store.page_touches > 0);
  Store.release r

(* Intra-query [Exec.run] at two domains: worker readers have no stream
   of their own, so the fold after each barrier is what brings their
   counts in.  Read before shutdown (whose release would fold too). *)
let test_fold_after_exec_barrier () =
  let store, index = table1_store () in
  (* the segment path: the summary filter would evaluate no segment *)
  Store.set_summary store false;
  Exec.with_executor ~jobs:2 store index (fun exec ->
      Exec.reset_stats exec;
      Metrics.reset Metrics.default;
      (* a few rounds, so both workers take chunks *)
      for _ = 1 to 4 do
        List.iter
          (fun q ->
            let r = Exec.query exec q (Engine.Secure 0) in
            (* each answer is a last-segment root, so >= 64 roots went
               through the chunked evaluator *)
            Alcotest.(check bool) (q ^ ": >= 64 answers") true
              (List.length r.Engine.answers >= 64))
          [ "//site//text"; "//site//keyword"; "//site//name";
            "//description//keyword" ]
      done;
      check_folded "exec jobs=2" (Exec.readers exec) (Store.disk store))

(* An update window folds at its end; [Disk.reset_stats] leaves the
   lifetime [versions_saved] in place, and the registry then counts
   only what the next window adds. *)
let test_fold_on_update_window () =
  let store, _ = table1_store () in
  let flip grant =
    Store.with_reader store (fun _pinned ->
        Update.set_subtree_accessibility store ~subject:0 ~grant 1)
  in
  flip false;
  let lifetime = (Disk.stats (Store.disk store)).Disk.versions_saved in
  Alcotest.(check bool) "a pinned reader kept versions" true (lifetime > 0);
  reset_views store;
  flip true;
  check_folded "update window" [ store ] (Store.disk store);
  let saved = (Disk.stats (Store.disk store)).Disk.versions_saved in
  check Alcotest.int "versions_saved is the window's delta" (saved - lifetime)
    (Metrics.counter_value "disk.versions_saved");
  Alcotest.(check bool) "the window saved versions" true (saved > lifetime)

(* A query that dies on a disk fault never finishes its stream; the
   reader's release folds what it did. *)
let test_fold_on_release_after_fault () =
  let store, index = table1_store () in
  let disk = Store.disk store in
  reset_views store;
  let r = Store.reader store in
  Disk.set_fault_plan disk
    (Some (Disk.fault_plan ~transient_read_p:1.0 (Prng.create 5)));
  Fun.protect
    ~finally:(fun () -> Disk.set_fault_plan disk None)
    (fun () ->
      match Engine.query r index "//keyword" (Engine.Secure 0) with
      | _ -> Alcotest.fail "expected a disk fault"
      | exception Disk.Fault { kind = Disk.Transient_read; _ } -> ());
  Store.release r;
  check_folded "fault + release" [ r ] disk;
  Alcotest.(check bool) "retries counted" true
    (Metrics.counter_value "pool.retries" > 0)

(* --- run builds are attributed per query --- *)

(* A traced secure query for a subject whose runs are not materialized
   builds them once, inside a [runs.build] span that also feeds the
   [span.runs.build] histogram; repeating the query hits the index. *)
let test_runs_build_span () =
  let tree = Xmark.generate_nodes ~seed:73 2_000 in
  let labeling = Synth_acl.generate_multi tree ~seed:74 ~n_subjects:3 () in
  let store =
    Store.create ~page_size:1024 ~pool_capacity:16 tree (Dol.of_labeling labeling)
  in
  let index = Tag_index.build tree in
  let hist = Metrics.histogram "span.runs.build" in
  let traced () =
    Trace.reset ();
    Trace.set_enabled true;
    let before = Metrics.observations hist in
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () -> ignore (Engine.query store index "//item//name" (Engine.Secure 1)));
    let spans =
      List.filter (fun s -> s.Trace.name = "runs.build") (Trace.spans Trace.default)
    in
    (List.length spans, Metrics.observations hist - before)
  in
  let cold = traced () in
  let warm = traced () in
  Trace.reset ();
  check Alcotest.(pair int int) "cold subject: one build span" (1, 1) cold;
  check Alcotest.(pair int int) "warm subject: no build span" (0, 0) warm

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "histogram exact = Stats.percentile" `Quick
      test_histogram_exact_matches_stats;
    Alcotest.test_case "histogram approx within bucket" `Quick
      test_histogram_approx_within_bucket;
    Alcotest.test_case "histogram dropped/zeros" `Quick
      test_histogram_dropped_and_zeros;
    Alcotest.test_case "span nesting and timing" `Quick
      test_span_nesting_and_timing;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "span disabled records nothing" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "spans feed histograms" `Quick test_spans_feed_histograms;
    Alcotest.test_case "metrics json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser strictness" `Quick
      test_json_parser_strictness;
    Alcotest.test_case "trace json" `Quick test_trace_json;
    Alcotest.test_case "counter parity with io_stats" `Quick
      test_counter_parity_on_table1_run;
    Alcotest.test_case "fold on early stream close" `Quick
      test_fold_on_early_close;
    Alcotest.test_case "fold after exec barrier (jobs=2)" `Quick
      test_fold_after_exec_barrier;
    Alcotest.test_case "fold on update window; versions_saved delta" `Quick
      test_fold_on_update_window;
    Alcotest.test_case "fold on release after a disk fault" `Quick
      test_fold_on_release_after_fault;
    Alcotest.test_case "runs.build span per cold subject" `Quick
      test_runs_build_span;
  ]
