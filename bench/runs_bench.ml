(** Access-run index bench: per-query cost with the run index on vs off
    ({!Tier_ab}), at three policy densities.

    "checks elided" counts access checks the run index answered without
    loading the node's page: the on-side [run_answers] minus the grants
    that still touch (denied verdicts are the elided page loads), made
    concrete as the drop in page touches between the two sides.

    The build section times the run builder itself: per density, the
    median wall microseconds of one subject's build into a fresh table
    (read straight from the codebook entries, as on a subject's first
    use in a policy state) and the mean bytes of a resident flip list,
    with every subject's built runs checked node by node against
    [Dol.accessible].
    Results land in BENCH_runs.json at the repo root.

    Overrides: DOLX_BENCH_SCALE (document size), DOLX_BENCH_RUNS_REPS
    (repetitions), DOLX_BENCH_RUNS_NODES (node count, pre-scale). *)

module Dol = Dolx_core.Dol
module Access_runs = Dolx_core.Access_runs
module Store = Dolx_core.Secure_store
module Json = Dolx_obs.Json
open Bench_common

let n_subjects = Tier_ab.n_subjects

let repetitions = env_int "DOLX_BENCH_RUNS_REPS" 7

let tier =
  {
    Tier_ab.name = "runs";
    nodes = max 1000 (env_int "DOLX_BENCH_RUNS_NODES" 30_000) * scale;
    repetitions;
    toggle = Store.set_run_index;
    (* read after the run: the handle's counts since the reset *)
    extra =
      (fun ~on store _ ->
        let io = Store.io_stats store in
        if on then
          [ ("touches_on", io.Store.page_touches); ("run_answers", io.Store.run_answers) ]
        else [ ("touches_off", io.Store.page_touches) ]);
  }

type build_point = {
  b_density : string;
  transitions : int;
  runs_per_subject : float;
  build_us : float;  (* median wall per build *)
  bytes_per_subject : float;  (* mean resident bytes of one list *)
  b_identical : bool;
}

(* Check every subject's list against the oracle, then time
   [repetitions] builds of every subject, each rep into a fresh table. *)
let bench_build ~density dol =
  let n = Dol.n_nodes dol in
  let checked = Access_runs.create dol in
  let runs_total = ref 0 and identical = ref true in
  for s = 0 to n_subjects - 1 do
    let r = Access_runs.runs checked ~subject:s in
    runs_total := !runs_total + Access_runs.run_count r;
    let w = Access_runs.walk r in
    for v = 0 to n - 1 do
      if Access_runs.mem w v <> Dol.accessible dol ~subject:s v then
        identical := false
    done
  done;
  let times = Array.make (repetitions * n_subjects) 0.0 in
  for rep = 0 to repetitions - 1 do
    let ri = Access_runs.create dol in
    for s = 0 to n_subjects - 1 do
      let t0 = Unix.gettimeofday () in
      ignore (Access_runs.runs ri ~subject:s);
      times.((rep * n_subjects) + s) <- Unix.gettimeofday () -. t0
    done
  done;
  {
    b_density = density;
    transitions = Dol.transition_count dol;
    runs_per_subject = float_of_int !runs_total /. float_of_int n_subjects;
    build_us = median times *. 1e6;
    bytes_per_subject =
      float_of_int (Access_runs.total_bytes checked) /. float_of_int n_subjects;
    b_identical = !identical;
  }

let run () =
  header "Access-run index: per-query cost, runs on vs off";
  let builds = ref [] in
  let ((points, _) as measured) =
    Tier_ab.measure tier
      ~on_store:(fun density store ->
        builds := bench_build ~density (Store.dol store) :: !builds)
      Tier_ab.[ sparse; medium; dense ]
  in
  let builds = List.rev !builds in
  table
    ([ "density"; "transitions"; "runs/subject"; "build us"; "bytes/subject"; "runs" ]
    :: List.map
         (fun b ->
           [
             b.b_density;
             string_of_int b.transitions;
             Printf.sprintf "%.0f" b.runs_per_subject;
             Printf.sprintf "%.1f" b.build_us;
             Printf.sprintf "%.0f" b.bytes_per_subject;
             (if b.b_identical then "= oracle" else "DIVERGED");
           ])
         builds);
  let build_identical = List.for_all (fun b -> b.b_identical) builds in
  let dense_speedup =
    points
    |> List.filter (fun p -> p.Tier_ab.density = "dense")
    |> List.map Tier_ab.speedup |> Array.of_list |> median
  in
  let elided =
    List.fold_left
      (fun a p -> a + Tier_ab.column p "touches_off" - Tier_ab.column p "touches_on")
      0 points
  in
  Printf.printf "page touches elided in total: %d\n%!" elided;
  Printf.printf "dense-policy median speedup: %.2fx (%s 1.3x target)\n%!"
    dense_speedup
    (if dense_speedup >= 1.3 then "meets" else "MISSES");
  let ok =
    Tier_ab.write tier measured
      ~fields:
        [
          ("checks_elided", Json.num_of_int elided);
          ("dense_median_speedup", Json.Num dense_speedup);
          ("build_identical", Json.Bool build_identical);
          ( "build",
            Json.Arr
              (List.map
                 (fun b ->
                   Json.Obj
                     [
                       ("density", Json.Str b.b_density);
                       ("transitions", Json.num_of_int b.transitions);
                       ("runs_per_subject", Json.Num b.runs_per_subject);
                       ("build_us_p50", Json.Num b.build_us);
                       ("bytes_per_subject", Json.Num b.bytes_per_subject);
                     ])
                 builds) );
        ]
  in
  if not (ok && build_identical) then exit 1
