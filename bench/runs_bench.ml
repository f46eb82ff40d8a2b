(** Access-run index bench: per-query cost with the run index on vs off,
    over XMark instances at three policy densities and three subjects.

    Methodology follows the parallel/obs benches: the two sides are
    interleaved (off, on, off, on, …) within each configuration so
    drift hits both equally, and the reported figure is the
    per-configuration median over [repetitions] >= 5.  Two costs are
    reported per side:

    - wall: measured wall-clock seconds (page decode, codebook lookups,
      run lookups — the real compute);
    - modeled: wall + the disk model's simulated stall time, i.e. the
      cost under the repo's paper-style I/O accounting (the simulated
      charge is never slept, so it must be added back to see what the
      elided page reads are worth).

    "checks elided" counts access checks the run index answered without
    loading the node's page: the on-side [run_answers] minus the grants
    that still touch (denied verdicts are the elided page loads), made
    concrete as the drop in page touches between the two sides.

    Answers are checked byte-identical on vs off for every
    configuration, and for one batch per density on a 4-domain pool.

    The build section times the run builder itself: per density, the
    median wall microseconds of one subject's build into a fresh table
    (read straight from the codebook entries, as on a subject's first
    use in a policy state) and the mean bytes of a resident flip list,
    with every subject's built runs checked node by node against
    [Dol.accessible].
    Results land in BENCH_runs.json at the repo root.

    Overrides: DOLX_BENCH_SCALE (document size), DOLX_BENCH_RUNS_REPS
    (repetitions), DOLX_BENCH_RUNS_NODES (node count, pre-scale). *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Access_runs = Dolx_core.Access_runs
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Exec = Dolx_exec.Exec
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Json = Dolx_obs.Json
open Bench_common

let page_size = 512

let pool_capacity = 8

let n_subjects = 3

let repetitions =
  match Sys.getenv_opt "DOLX_BENCH_RUNS_REPS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 7)
  | None -> 7

let nodes =
  (match Sys.getenv_opt "DOLX_BENCH_RUNS_NODES" with
  | Some s -> (try max 1000 (int_of_string s) with _ -> 30_000)
  | None -> 30_000)
  * scale

(* Three policy densities: the denser the policy, the more transitions
   the DOL carries and the larger the inaccessible region a dense-policy
   subject must be filtered against — the regime the run index targets. *)
let densities =
  [
    ( "sparse",
      { Synth_acl.propagation_ratio = 0.02;
        accessibility_ratio = 0.9;
        sibling_copy_p = 0.5 } );
    ("medium", Synth_acl.default);
    ( "dense",
      { Synth_acl.propagation_ratio = 0.30;
        accessibility_ratio = 0.35;
        sibling_copy_p = 0.3 } );
  ]

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

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

(* One measured evaluation: reset stats, run, return (answers, wall,
   modeled, io_stats). *)
let measured store index pat sem =
  Store.reset_stats store;
  Disk.reset_stats (Store.disk store);
  let t0 = Unix.gettimeofday () in
  let r = Engine.run store index pat sem in
  let wall = Unix.gettimeofday () -. t0 in
  let modeled = wall +. (Disk.simulated_us (Store.disk store) /. 1e6) in
  (r.Engine.answers, wall, modeled, Store.io_stats store)

type point = {
  density : string;
  subject : int;
  qid : string;
  wall_off : float;
  wall_on : float;
  modeled_off : float;
  modeled_on : float;
  run_answers : int;
  touches_off : int;
  touches_on : int;
  identical : bool;
}

let bench_config store index ~density ~subject (qid, xpath) =
  let pat = Xpath.parse xpath in
  let sem = Engine.Secure subject in
  (* warm both sides off the clock *)
  Store.set_run_index store false;
  ignore (Engine.run store index pat sem);
  Store.set_run_index store true;
  ignore (Engine.run store index pat sem);
  let w_off = Array.make repetitions 0.0
  and w_on = Array.make repetitions 0.0
  and m_off = Array.make repetitions 0.0
  and m_on = Array.make repetitions 0.0 in
  let identical = ref true in
  let run_answers = ref 0 and touches_off = ref 0 and touches_on = ref 0 in
  for i = 0 to repetitions - 1 do
    Store.set_run_index store false;
    let a_off, wall, modeled, io = measured store index pat sem in
    w_off.(i) <- wall;
    m_off.(i) <- modeled;
    touches_off := io.Store.page_touches;
    Store.set_run_index store true;
    let a_on, wall, modeled, io = measured store index pat sem in
    w_on.(i) <- wall;
    m_on.(i) <- modeled;
    touches_on := io.Store.page_touches;
    run_answers := io.Store.run_answers;
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
    run_answers = !run_answers;
    touches_off = !touches_off;
    touches_on = !touches_on;
    identical = !identical;
  }

(* Batch determinism: the full query set for every subject, sequential
   runs-off baseline vs a 4-domain pool with the index on. *)
let batch_identical store index =
  let batch =
    List.concat_map
      (fun s -> List.map (fun (_, q) -> (Xpath.parse q, Engine.Secure s)) (Xmark.queries))
      (List.init n_subjects Fun.id)
  in
  Store.set_run_index store false;
  let baseline =
    List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) batch
  in
  Store.set_run_index store true;
  let exec = Exec.create ~pool_capacity ~jobs:4 store index in
  let results = Exec.run_batch exec batch in
  Exec.shutdown exec;
  List.for_all2 (fun b r -> b = r.Engine.answers) baseline results

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
    for v = 0 to n - 1 do
      if Access_runs.mem r v <> Dol.accessible dol ~subject:s v then
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
  Printf.printf
    "%d nodes, %d subjects, %dB pages, %d-frame pool, %d reps (interleaved \
     medians)\n%!"
    nodes n_subjects page_size pool_capacity repetitions;
  let all_points = ref [] in
  let all_batches_ok = ref true in
  let builds = ref [] in
  List.iter
    (fun (density, params) ->
      let _tree, store, index = make_store params 131 in
      builds := bench_build ~density (Store.dol store) :: !builds;
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
          string_of_int p.run_answers;
          string_of_int (p.touches_off - p.touches_on);
          (if p.identical then "=" else "DIVERGED");
        ])
      points
  in
  table
    ([ "density"; "subj"; "query"; "off ms"; "on ms"; "speedup";
       "run answers"; "touches saved"; "answers" ]
    :: rows);
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
  let identical = List.for_all (fun p -> p.identical) points in
  let speedups which =
    points
    |> List.filter (fun p -> p.density = which)
    |> List.map (fun p -> p.modeled_off /. Float.max p.modeled_on 1e-9)
    |> Array.of_list
  in
  let dense_speedup = median (speedups "dense") in
  let elided = List.fold_left (fun a p -> a + (p.touches_off - p.touches_on)) 0 points in
  Printf.printf "answers byte-identical on vs off: %s\n%!"
    (if identical then "yes" else "NO");
  Printf.printf "batch on 4 domains = sequential off baseline: %s\n%!"
    (if !all_batches_ok then "yes" else "NO");
  Printf.printf "page touches elided in total: %d\n%!" elided;
  Printf.printf "dense-policy median speedup: %.2fx (%s 1.3x target)\n%!"
    dense_speedup
    (if dense_speedup >= 1.3 then "meets" else "MISSES");
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "runs");
        ("nodes", Json.num_of_int nodes);
        ("subjects", Json.num_of_int n_subjects);
        ("page_size", Json.num_of_int page_size);
        ("pool_capacity", Json.num_of_int pool_capacity);
        ("repetitions", Json.num_of_int repetitions);
        ("identical", Json.Bool identical);
        ("batch_identical", Json.Bool !all_batches_ok);
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
                     ( "speedup",
                       Json.Num (p.modeled_off /. Float.max p.modeled_on 1e-9) );
                     ("run_answers", Json.num_of_int p.run_answers);
                     ("touches_off", Json.num_of_int p.touches_off);
                     ("touches_on", Json.num_of_int p.touches_on);
                     ("identical", Json.Bool p.identical);
                   ])
               points) );
      ]
  in
  let path = "BENCH_runs.json" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path;
  if not (identical && !all_batches_ok && build_identical) then exit 1
