(** Path-summary bench: per-query cost with the DataGuide summary tier
    on vs off, over XMark instances at two policy densities and three
    subjects.  It also reports the size of the balanced-parentheses
    image ({!Dolx_index.Succinct}), built on demand: the store navigates
    its resident pointer arena, so that image is off the query path and
    only its compactness is measured here.

    Methodology follows the runs bench: the two sides are interleaved
    (off, on, off, on, ...) within each configuration so drift hits both
    equally, and the reported figure is the per-configuration median
    over [repetitions].  Two costs are reported per side:

    - wall: measured wall-clock seconds;
    - modeled: wall + the disk model's simulated stall time (the
      repo's paper-style I/O accounting).

    The on side evaluates with the DataGuide summary pruning candidate
    classes (plus the summary-path plan for child-chain queries); the
    off side pins the summary off on the same physical store.  The run
    index stays at its default on both sides, so the comparison
    isolates the summary.

    Answers are checked byte-identical on vs off for every
    configuration, and for one batch per density on a 4-domain pool
    against the sequential off-side baseline.  The dense configuration
    must show [engine.summary_pruned > 0] (classes discarded by the
    structural analysis or their spans proven inaccessible).  Results
    land in BENCH_succinct.json at the repo root.

    Overrides: DOLX_BENCH_SCALE (document size), DOLX_BENCH_SUCCINCT_REPS
    (repetitions), DOLX_BENCH_SUCCINCT_NODES (node count, pre-scale). *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Succinct = Dolx_index.Succinct
module Path_summary = Dolx_index.Path_summary
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Exec = Dolx_exec.Exec
module Metrics = Dolx_obs.Metrics
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Json = Dolx_obs.Json
open Bench_common

let page_size = 512

let pool_capacity = 8

let n_subjects = 3

let repetitions =
  match Sys.getenv_opt "DOLX_BENCH_SUCCINCT_REPS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 7)
  | None -> 7

let nodes =
  (match Sys.getenv_opt "DOLX_BENCH_SUCCINCT_NODES" with
  | Some s -> (try max 1000 (int_of_string s) with _ -> 30_000)
  | None -> 30_000)
  * scale

(* Medium measures the common case; dense maximizes inaccessible
   regions, the regime where class-level dead-span pruning bites. *)
let densities =
  [
    ("medium", Synth_acl.default);
    ( "dense",
      { Synth_acl.propagation_ratio = 0.30;
        accessibility_ratio = 0.35;
        sibling_copy_p = 0.3 } );
  ]

(* Mean of the middle two for an even count, as ci/check_bench.py
   computes it: the 36 points split evenly around 1.0x in wall time, so
   the upper middle alone would overstate the wall median. *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let make_store params seed =
  let tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi tree ~params ~seed:(seed + 1) ~n_subjects ()
  in
  let dol = Dol.of_labeling labeling in
  let disk = Disk.create ~page_size () in
  let layout =
    Nok_layout.build disk tree ~transitions:(Array.of_list (Dol.transitions dol))
  in
  let store = Store.assemble ~pool_capacity ~tree ~dol ~disk ~layout () in
  let index = Tag_index.build tree in
  (tree, store, index)

(* One measured evaluation: reset stats, run, return
   (answers, wall, modeled, candidates scanned, summary classes pruned). *)
let measured store index pat sem =
  Store.reset_stats store;
  Disk.reset_stats (Store.disk store);
  let pruned0 = Metrics.counter_value "engine.summary_pruned" in
  let t0 = Unix.gettimeofday () in
  let r = Engine.run store index pat sem in
  let wall = Unix.gettimeofday () -. t0 in
  let modeled = wall +. (Disk.simulated_us (Store.disk store) /. 1e6) in
  let pruned = Metrics.counter_value "engine.summary_pruned" - pruned0 in
  (r.Engine.answers, wall, modeled, r.Engine.candidates_scanned, pruned)

type point = {
  density : string;
  subject : int;
  qid : string;
  wall_off : float;
  wall_on : float;
  modeled_off : float;
  modeled_on : float;
  scanned_off : int;
  scanned_on : int;
  summary_pruned : int;
  identical : bool;
}

let bench_config store index ~density ~subject (qid, xpath) =
  let pat = Xpath.parse xpath in
  let sem = Engine.Secure subject in
  (* warm both sides off the clock *)
  Store.set_summary store false;
  ignore (Engine.run store index pat sem);
  Store.set_summary store true;
  ignore (Engine.run store index pat sem);
  let w_off = Array.make repetitions 0.0
  and w_on = Array.make repetitions 0.0
  and m_off = Array.make repetitions 0.0
  and m_on = Array.make repetitions 0.0 in
  let identical = ref true in
  let scanned_off = ref 0 and scanned_on = ref 0 and summary_pruned = ref 0 in
  for i = 0 to repetitions - 1 do
    Store.set_summary store false;
    let a_off, wall, modeled, scanned, _ = measured store index pat sem in
    w_off.(i) <- wall;
    m_off.(i) <- modeled;
    scanned_off := scanned;
    Store.set_summary store true;
    let a_on, wall, modeled, scanned, pruned = measured store index pat sem in
    w_on.(i) <- wall;
    m_on.(i) <- modeled;
    scanned_on := scanned;
    summary_pruned := pruned;
    if a_on <> a_off then identical := false
  done;
  {
    density;
    subject;
    qid;
    wall_off = median w_off;
    wall_on = median w_on;
    modeled_off = median m_off;
    modeled_on = median m_on;
    scanned_off = !scanned_off;
    scanned_on = !scanned_on;
    summary_pruned = !summary_pruned;
    identical = !identical;
  }

(* Batch determinism: the full query set for every subject, sequential
   summary-off baseline vs a 4-domain pool with the summary on. *)
let batch_identical store index =
  let batch =
    List.concat_map
      (fun s ->
        List.map (fun (_, q) -> (Xpath.parse q, Engine.Secure s)) Xmark.queries)
      (List.init n_subjects Fun.id)
  in
  Store.set_summary store false;
  let baseline =
    List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) batch
  in
  Store.set_summary store true;
  let exec = Exec.create ~pool_capacity ~jobs:4 store index in
  let results = Exec.run_batch exec batch in
  Exec.shutdown exec;
  List.for_all2 (fun b r -> b = r.Engine.answers) baseline results

let run () =
  header "Path summary: per-query cost, on vs off";
  Printf.printf
    "%d nodes, %d subjects, %dB pages, %d-frame pool, %d reps (interleaved \
     medians)\n%!"
    nodes n_subjects page_size pool_capacity repetitions;
  let all_points = ref [] in
  let all_batches_ok = ref true in
  let bits_per_node = ref 0.0 in
  let summary_classes = ref 0 in
  List.iter
    (fun (density, params) ->
      let tree, store, index = make_store params 131 in
      bits_per_node := Succinct.bits_per_node (Succinct.build tree);
      summary_classes := Path_summary.node_count (Store.path_summary store);
      List.iter
        (fun subject ->
          List.iter
            (fun q ->
              let p = bench_config store index ~density ~subject q in
              all_points := p :: !all_points)
            Xmark.queries)
        (List.init n_subjects Fun.id);
      if not (batch_identical store index) then all_batches_ok := false)
    densities;
  let points = List.rev !all_points in
  let rows =
    List.map
      (fun p ->
        [
          p.density;
          string_of_int p.subject;
          p.qid;
          fmt_f (p.modeled_off *. 1e3);
          fmt_f (p.modeled_on *. 1e3);
          Printf.sprintf "%.2fx" (p.modeled_off /. Float.max p.modeled_on 1e-9);
          string_of_int p.scanned_off;
          string_of_int p.scanned_on;
          string_of_int p.summary_pruned;
          (if p.identical then "=" else "DIVERGED");
        ])
      points
  in
  table
    ([ "density"; "subj"; "query"; "off ms"; "on ms"; "speedup";
       "scan off"; "scan on"; "cls pruned"; "answers" ]
    :: rows);
  let identical = List.for_all (fun p -> p.identical) points in
  let speedup p = p.modeled_off /. Float.max p.modeled_on 1e-9 in
  let median_speedup =
    median (Array.of_list (List.map speedup points))
  in
  let wall_median_speedup =
    median
      (Array.of_list
         (List.map (fun p -> p.wall_off /. Float.max p.wall_on 1e-9) points))
  in
  let dense_pruned =
    List.fold_left
      (fun a p -> if p.density = "dense" then a + p.summary_pruned else a)
      0 points
  in
  let scans_saved =
    List.fold_left (fun a p -> a + (p.scanned_off - p.scanned_on)) 0 points
  in
  Printf.printf "answers byte-identical on vs off: %s\n%!"
    (if identical then "yes" else "NO");
  Printf.printf "batch on 4 domains = sequential off baseline: %s\n%!"
    (if !all_batches_ok then "yes" else "NO");
  Printf.printf "succinct: %.2f bits/node (%s 4.0 budget); summary: %d classes\n%!"
    !bits_per_node
    (if !bits_per_node <= 4.0 then "within" else "EXCEEDS")
    !summary_classes;
  Printf.printf "dense-policy summary classes pruned: %d (%s)\n%!" dense_pruned
    (if dense_pruned > 0 then "pruning engaged" else "NO PRUNING");
  Printf.printf "candidates scanned saved in total: %d\n%!" scans_saved;
  Printf.printf "median speedup across Table-1 queries: %.2fx (%s 1.3x target)\n%!"
    median_speedup
    (if median_speedup >= 1.3 then "meets" else "MISSES");
  Printf.printf "median wall-clock speedup: %.2fx (report only)\n%!"
    wall_median_speedup;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "succinct");
        ("nodes", Json.num_of_int nodes);
        ("subjects", Json.num_of_int n_subjects);
        ("page_size", Json.num_of_int page_size);
        ("pool_capacity", Json.num_of_int pool_capacity);
        ("repetitions", Json.num_of_int repetitions);
        ("identical", Json.Bool identical);
        ("batch_identical", Json.Bool !all_batches_ok);
        ("bits_per_node", Json.Num !bits_per_node);
        ("summary_classes", Json.num_of_int !summary_classes);
        ("dense_summary_pruned", Json.num_of_int dense_pruned);
        ("scans_saved", Json.num_of_int scans_saved);
        ("median_speedup", Json.Num median_speedup);
        ("wall_median_speedup", Json.Num wall_median_speedup);
        ( "points",
          Json.Arr
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("density", Json.Str p.density);
                     ("subject", Json.num_of_int p.subject);
                     ("query", Json.Str p.qid);
                     ("wall_off_s", Json.Num p.wall_off);
                     ("wall_on_s", Json.Num p.wall_on);
                     ("modeled_off_s", Json.Num p.modeled_off);
                     ("modeled_on_s", Json.Num p.modeled_on);
                     ("speedup", Json.Num (speedup p));
                     ("scanned_off", Json.num_of_int p.scanned_off);
                     ("scanned_on", Json.num_of_int p.scanned_on);
                     ("summary_pruned", Json.num_of_int p.summary_pruned);
                     ("identical", Json.Bool p.identical);
                   ])
               points) );
      ]
  in
  let path = "BENCH_succinct.json" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path;
  if not (identical && !all_batches_ok) then exit 1
