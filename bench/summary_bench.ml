(** Path-summary bench: per-query cost with the DataGuide summary tier
    on vs off ({!Tier_ab}), at two policy densities.

    The on side evaluates with the DataGuide summary pruning candidate
    classes (plus the summary-path plan for child-chain queries); the
    off side pins the summary off on the same physical store.  The run
    index stays at its default on both sides, so the comparison
    isolates the summary.

    The dense configuration must show [engine.summary_pruned > 0]
    (classes discarded by the structural analysis or their spans proven
    inaccessible).  Results land in BENCH_summary.json at the repo
    root.

    Overrides: DOLX_BENCH_SCALE (document size), DOLX_BENCH_SUMMARY_REPS
    (repetitions), DOLX_BENCH_SUMMARY_NODES (node count, pre-scale). *)

module Store = Dolx_core.Secure_store
module Path_summary = Dolx_index.Path_summary
module Engine = Dolx_nok.Engine
module Metrics = Dolx_obs.Metrics
module Json = Dolx_obs.Json
open Bench_common

let tier =
  {
    Tier_ab.name = "summary";
    nodes = max 1000 (env_int "DOLX_BENCH_SUMMARY_NODES" 30_000) * scale;
    repetitions = env_int "DOLX_BENCH_SUMMARY_REPS" 7;
    toggle = Store.set_summary;
    extra =
      (fun ~on _ ->
        let pruned0 = Metrics.counter_value "engine.summary_pruned" in
        fun r ->
          let scanned = r.Engine.candidates_scanned in
          if on then
            [
              ("scanned_on", scanned);
              ("summary_pruned", Metrics.counter_value "engine.summary_pruned" - pruned0);
            ]
          else [ ("scanned_off", scanned) ]);
  }

let run () =
  header "Path summary: per-query cost, on vs off";
  let summary_classes = ref 0 in
  (* Medium measures the common case; dense maximizes inaccessible
     regions, the regime where class-level dead-span pruning bites. *)
  let ((points, _) as measured) =
    Tier_ab.measure tier
      ~on_store:(fun _ store ->
        summary_classes := Path_summary.node_count (Store.path_summary store))
      Tier_ab.[ medium; dense ]
  in
  let median_of f = median (Array.of_list (List.map f points)) in
  let median_speedup = median_of Tier_ab.speedup in
  let wall_median_speedup = median_of Tier_ab.wall_speedup in
  let sum f = List.fold_left (fun a p -> a + f p) 0 points in
  let dense_pruned =
    sum (fun p ->
        if p.Tier_ab.density = "dense" then Tier_ab.column p "summary_pruned" else 0)
  in
  let scans_saved =
    sum (fun p -> Tier_ab.column p "scanned_off" - Tier_ab.column p "scanned_on")
  in
  Printf.printf "summary: %d classes\n%!" !summary_classes;
  Printf.printf "dense-policy summary classes pruned: %d (%s)\n%!" dense_pruned
    (if dense_pruned > 0 then "pruning engaged" else "NO PRUNING");
  Printf.printf "candidates scanned saved in total: %d\n%!" scans_saved;
  Printf.printf "median speedup across Table-1 queries: %.2fx (%s 1.3x target)\n%!"
    median_speedup
    (if median_speedup >= 1.3 then "meets" else "MISSES");
  Printf.printf "median wall-clock speedup: %.2fx (%s the 1.0x CI gate)\n%!"
    wall_median_speedup
    (if wall_median_speedup >= 1.0 then "meets" else "MISSES");
  let ok =
    Tier_ab.write tier measured
      ~fields:
        [
          ("summary_classes", Json.num_of_int !summary_classes);
          ("dense_summary_pruned", Json.num_of_int dense_pruned);
          ("scans_saved", Json.num_of_int scans_saved);
          ("median_speedup", Json.Num median_speedup);
          ("wall_median_speedup", Json.Num wall_median_speedup);
        ]
  in
  if not ok then exit 1
