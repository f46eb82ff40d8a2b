(** Observability bench: tracing overhead + per-query operator breakdown.

    Two parts:

    - Overhead: run the Table-1 query suite with span tracing off and
      on ([Trace.set_enabled]) and report the time ratio.  The metrics
      registry is always on; its storage and check counts are folded in
      once per query, so what the switch prices is the spans (a clock
      read pair, a record and a histogram observation per span).  The
      budget is < 2%.

    - Breakdown: re-run each query with metrics + span tracing on and
      emit [BENCH_obs.json]: per query, the answer count, wall time, the
      legacy I/O counters, the engine shape (segments / joins /
      candidates), the span tree and a full registry snapshot. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Buffer_pool = Dolx_storage.Buffer_pool
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace
module Json = Dolx_obs.Json
open Bench_common

let setup () =
  let tree = Xmark.generate_nodes ~seed:71 (30_000 * scale) in
  Printf.printf "XMark instance: %d nodes\n%!" (Tree.size tree);
  let index = Tag_index.build tree in
  let params =
    { Synth_acl.propagation_ratio = 0.1; accessibility_ratio = 0.7;
      sibling_copy_p = 0.5 }
  in
  let bools = Synth_acl.generate_bool tree ~params (Prng.create 72) in
  bools.(0) <- true;
  Tree.iter_children
    (fun c ->
      bools.(c) <- true;
      Tree.iter_children (fun g -> bools.(g) <- true) tree c)
    tree 0;
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:4096 ~pool_capacity:128 tree dol in
  (tree, index, store)

let patterns = List.map (fun (n, q) -> (n, q, Dolx_nok.Xpath.parse q)) Xmark.queries

let run_suite store index =
  List.iter
    (fun (_, _, p) -> ignore (Engine.run store index p (Engine.Secure 0)))
    patterns

(* Mean wall time of [reps] back-to-back suite runs in the current
   tracing state. *)
let time_suite_once ?(reps = 5) store index =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    run_suite store index
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Interleaved A/B: each repetition times the suite with tracing off
   then on, so slow drift (GC heap shape, CPU frequency, competing load)
   lands on both configurations instead of biasing whichever was
   measured second; the reported pair is the per-configuration median
   over [repetitions] >= 5.  The pool is warmed first so both see
   identical I/O. *)
let overhead ?(repetitions = 7) store index =
  header "Observability overhead: Table-1 suite, span tracing off vs on";
  Trace.set_clock Unix.gettimeofday;
  Trace.set_enabled false;
  run_suite store index;
  let offs = Array.make repetitions 0.0 in
  let ons = Array.make repetitions 0.0 in
  for i = 0 to repetitions - 1 do
    Trace.set_enabled false;
    offs.(i) <- time_suite_once store index;
    Trace.reset ();
    Trace.set_enabled true;
    ons.(i) <- time_suite_once store index
  done;
  Trace.set_enabled false;
  Trace.reset ();
  let t_off = median offs in
  let t_on = median ons in
  let pct = ((t_on /. t_off) -. 1.0) *. 100.0 in
  table
    [
      [ "config"; "suite ms"; "overhead" ];
      [ "tracing off"; fmt_f (t_off *. 1000.0); "baseline" ];
      [ "tracing on"; fmt_f (t_on *. 1000.0); Printf.sprintf "%+.2f%%" pct ];
    ];
  Printf.printf "tracing overhead %s the 2%% budget (%+.2f%%)\n%!"
    (if pct < 2.0 then "within" else "OVER")
    pct;
  (t_off, t_on, pct)

let breakdown store index =
  header "Per-query operator breakdown (metrics + tracing on)";
  Trace.set_clock Unix.gettimeofday;
  Trace.set_enabled true;
  let per_query =
    List.map
      (fun (name, q, pattern) ->
        Buffer_pool.clear (Store.pool store);
        Store.reset_stats store;
        Metrics.reset Metrics.default;
        Trace.reset ();
        let t0 = Unix.gettimeofday () in
        let r = Engine.run store index pattern (Engine.Secure 0) in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let io = Store.io_stats store in
        let row =
          [
            name;
            fmt_i (List.length r.Engine.answers);
            fmt_f wall_ms;
            fmt_i io.Store.page_touches;
            fmt_i io.Store.pool_hits;
            fmt_i io.Store.pool_misses;
            fmt_i io.Store.disk_reads;
            fmt_i io.Store.access_checks;
            fmt_i io.Store.header_skips;
            fmt_i r.Engine.segments;
            fmt_i r.Engine.joins;
            fmt_i r.Engine.candidates_scanned;
          ]
        in
        let json =
          Json.Obj
            [
              ("id", Json.Str name);
              ("query", Json.Str q);
              ("answers", Json.num_of_int (List.length r.Engine.answers));
              ("wall_ms", Json.Num wall_ms);
              ("page_touches", Json.num_of_int io.Store.page_touches);
              ("pool_hits", Json.num_of_int io.Store.pool_hits);
              ("pool_misses", Json.num_of_int io.Store.pool_misses);
              ("disk_reads", Json.num_of_int io.Store.disk_reads);
              ("access_checks", Json.num_of_int io.Store.access_checks);
              ("header_skips", Json.num_of_int io.Store.header_skips);
              ("codebook_lookups", Json.num_of_int io.Store.codebook_lookups);
              ("segments", Json.num_of_int r.Engine.segments);
              ("joins", Json.num_of_int r.Engine.joins);
              ("candidates_scanned", Json.num_of_int r.Engine.candidates_scanned);
              ("spans", Trace.to_json ());
              ("metrics", Metrics.to_json Metrics.default);
            ]
        in
        (row, json))
      patterns
  in
  Trace.set_enabled false;
  table
    ([ "id"; "ans"; "ms"; "touch"; "hit"; "miss"; "read"; "check"; "skip";
       "seg"; "join"; "cand" ]
    :: List.map fst per_query);
  List.map snd per_query

let run () =
  let tree, index, store = setup () in
  let t_off, t_on, pct = overhead store index in
  let per_query = breakdown store index in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "obs");
        ("nodes", Json.num_of_int (Tree.size tree));
        ( "overhead",
          Json.Obj
            [
              ("suite_ms_trace_off", Json.Num (t_off *. 1000.0));
              ("suite_ms_trace_on", Json.Num (t_on *. 1000.0));
              ("overhead_pct", Json.Num pct);
            ] );
        ("queries", Json.Arr per_query);
      ]
  in
  let path = "BENCH_obs.json" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path
