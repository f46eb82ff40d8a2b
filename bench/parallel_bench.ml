(** Parallel execution bench: batch throughput of {!Serve.run_batch},
    swept over worker counts.  Each query runs on a fresh reader, so no
    worker count starts with warmer pools than another.

    The store is configured I/O-bound on purpose — small pages (1 KiB)
    and small per-reader buffer pools (16 frames) over a large XMark
    instance — so most of each query's cost is simulated disk latency
    (the {!Disk} cost model charges 100 µs per physical page read
    without sleeping the wall clock).

    The batch is the seeded mix repeated [rounds] times, so at CI
    scale one worker spends over 0.3 s on it: long enough for wall
    time to be read above scheduling noise.  Two numbers are reported
    per worker count:

    - wall: measured wall-clock throughput.  On a single-core host the
      domains time-share one CPU, so wall throughput shows scheduling
      overhead rather than speedup; on a multicore host it shows real
      scaling.
    - modeled: throughput under the repo's own synthetic I/O cost
      model, [modeled_time = wall + sim_io_seconds / jobs].  Simulated
      disk stalls are charged to the clock the disk model keeps, and
      independent readers with private buffer pools overlap their
      stalls, so dividing the accumulated stall time across the workers
      is the model-consistent account — it is how the paper-style I/O
      accounting composes with parallelism, not a wall-clock claim.

    Every sweep point is checked byte-identical to the jobs=1 run;
    results land in BENCH_parallel.json.
    Set DOLX_BENCH_PARALLEL_JOBS=1,2,4 to override the sweep. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Serve = Dolx_serve.Serve
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Query_mix = Dolx_workload.Query_mix
module Json = Dolx_obs.Json
open Bench_common

let page_size = 1024

let reader_pool_capacity = 16

(* Cold-storage latency (networked/contended disk, ~4x the SSD-like
   default) — the regime where overlapping I/O across readers pays. *)
let read_cost_us = 400.0

let n_subjects = 8

let rounds = 20

let jobs_sweep =
  match Sys.getenv_opt "DOLX_BENCH_PARALLEL_JOBS" with
  | None -> [ 1; 2; 4; 8 ]
  | Some s ->
      s |> String.split_on_char ','
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
      |> List.filter (fun j -> j >= 1)

let setup () =
  let tree = Xmark.generate_nodes ~seed:83 (60_000 * scale) in
  Printf.printf "XMark instance: %d nodes, %d subjects, %dB pages, %d-frame \
                 reader pools\n%!"
    (Tree.size tree) n_subjects page_size reader_pool_capacity;
  let labeling = Synth_acl.generate_multi tree ~seed:84 ~n_subjects () in
  let dol = Dol.of_labeling labeling in
  let disk = Disk.create ~page_size ~read_cost_us () in
  let layout =
    Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
  in
  let store =
    Store.assemble ~pool_capacity:reader_pool_capacity ~tree ~dol ~disk ~layout ()
  in
  let index = Tag_index.build tree in
  (tree, store, index)

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

(* One sweep point: run [batch] on a [jobs]-worker service, returning
   the answers, wall seconds and simulated-I/O seconds.  The workers
   start before the clock does. *)
let run_point store index batch jobs =
  Serve.with_service ~jobs (fun srv ->
      Serve.add_tenant srv "bench" (Serve.Mem (store, index));
      Disk.reset_stats (Store.disk store);
      let t0 = Unix.gettimeofday () in
      let answers = Serve.run_batch srv ~tenant:"bench" batch in
      let wall = Unix.gettimeofday () -. t0 in
      (answers, wall, Disk.simulated_us (Store.disk store) /. 1e6))

let run () =
  let tree, store, index = setup () in
  let entries = Query_mix.generate ~n:(48 * scale) ~subjects:n_subjects ~seed:85 () in
  let mix =
    List.map (fun e -> (Xpath.parse e.Query_mix.xpath, semantics e.Query_mix.semantics)) entries
  in
  let batch = List.concat (List.init rounds (fun _ -> mix)) in
  let n = List.length batch in
  header "Parallel batch throughput (wall + modeled I/O overlap)";
  let baseline = ref None in
  let deterministic = ref true in
  let points =
    List.map
      (fun jobs ->
        let signature, wall, sim_io = run_point store index batch jobs in
        (match !baseline with
        | None -> baseline := Some signature
        | Some b -> if b <> signature then deterministic := false);
        let modeled = wall +. (sim_io /. float_of_int jobs) in
        (jobs, wall, sim_io, modeled))
      jobs_sweep
  in
  let modeled_of j =
    List.find_map
      (fun (jobs, _, _, m) -> if jobs = j then Some m else None)
      points
  in
  let base_modeled = modeled_of 1 in
  let rows =
    List.map
      (fun (jobs, wall, sim_io, modeled) ->
        let speedup =
          match base_modeled with
          | Some b when modeled > 0.0 -> Printf.sprintf "%.2fx" (b /. modeled)
          | _ -> "-"
        in
        [
          string_of_int jobs;
          fmt_f (wall *. 1000.0);
          fmt_f (sim_io *. 1000.0);
          fmt_f (modeled *. 1000.0);
          fmt_f (float_of_int n /. Float.max wall 1e-9);
          fmt_f (float_of_int n /. Float.max modeled 1e-9);
          speedup;
        ])
      points
  in
  table
    ([ "jobs"; "wall ms"; "sim io ms"; "modeled ms"; "wall q/s";
       "modeled q/s"; "speedup" ]
    :: rows);
  Printf.printf "all sweep points %s with jobs=1\n%!"
    (if !deterministic then "byte-identical" else "DIVERGED");
  (match (base_modeled, modeled_of 4) with
  | Some b, Some m4 ->
      let s = b /. m4 in
      Printf.printf "modeled speedup at 4 domains: %.2fx (%s 2.5x target)\n%!" s
        (if s >= 2.5 then "meets" else "MISSES")
  | _ -> ());
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "parallel");
        ("nodes", Json.num_of_int (Tree.size tree));
        ("subjects", Json.num_of_int n_subjects);
        ("page_size", Json.num_of_int page_size);
        ("reader_pool_capacity", Json.num_of_int reader_pool_capacity);
        ("rounds", Json.num_of_int rounds);
        ("queries", Json.num_of_int n);
        ("deterministic", Json.Bool !deterministic);
        ( "points",
          Json.Arr
            (List.map
               (fun (jobs, wall, sim_io, modeled) ->
                 Json.Obj
                   [
                     ("jobs", Json.num_of_int jobs);
                     ("wall_s", Json.Num wall);
                     ("sim_io_s", Json.Num sim_io);
                     ("modeled_s", Json.Num modeled);
                     ("wall_qps", Json.Num (float_of_int n /. Float.max wall 1e-9));
                     ( "modeled_qps",
                       Json.Num (float_of_int n /. Float.max modeled 1e-9) );
                     ( "modeled_speedup",
                       match base_modeled with
                       | Some b when modeled > 0.0 -> Json.Num (b /. modeled)
                       | _ -> Json.Null );
                   ])
               points) );
      ]
  in
  let path = "BENCH_parallel.json" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path;
  if not !deterministic then exit 1
