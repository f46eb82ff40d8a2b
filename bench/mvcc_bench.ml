(** MVCC bench: reader throughput under continuous updates, and group
    commit vs per-record flushing.

    Part 1 — snapshot-isolated readers.  A 4-worker {!Serve} runs a
    fixed query batch (a seeded mix repeated [rounds] times, so the
    contended run overlaps several update windows) twice over one
    reader pinned before the batch (every query's own reader, taken
    from it, shares its epoch): once
    with the writer idle, once while a writer domain continuously
    applies accessibility updates ({!Update.set_node_accessibility}
    windows) for the whole measured interval.  Updates force
    copy-on-write page versions, so the contended run exercises the
    version-chain read path.  Throughput is compared on the repo's
    modeled account ([wall + sim_io / jobs], as in the parallel bench —
    on a 1-core host wall time only shows domains time-sharing the
    CPU); the gate is contended >= 80% of writer-idle.  The pinned readers' answers
    must be byte-identical across both runs: updates may not leak into
    a pinned snapshot.

    Part 2 — group commit.  The same 64 durable updates are committed
    through {!Group_commit} twice: [max_batch = 1] (per-record
    flushing) vs [max_batch = 16].  Flushes are modeled (counted and
    priced at [flush_cost_us]), so modeled durable time is
    [wall + flushes * flush_cost]; the gate is >= 2x speedup from
    batching, with byte-identical final images.

    Results land in BENCH_mvcc.json (validated by ci/check_bench.py). *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Db_file = Dolx_core.Db_file
module Group_commit = Dolx_core.Group_commit
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

let read_cost_us = 400.0

let n_subjects = 6

let jobs = 4

let rounds = 40

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

let setup () =
  let tree = Xmark.generate_nodes ~seed:91 (30_000 * scale) in
  let labeling = Synth_acl.generate_multi tree ~seed:92 ~n_subjects () in
  let dol = Dol.of_labeling labeling in
  let disk = Disk.create ~page_size ~read_cost_us () in
  let layout =
    Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
  in
  let store =
    Store.assemble ~pool_capacity:reader_pool_capacity ~tree ~dol ~disk ~layout ()
  in
  (tree, store, Tag_index.build tree)

(* Run [batch] on a fresh [jobs]-worker service over a reader pinned
   now; while it runs, [writer] (if any) applies updates to the live
   store until signalled.  Returns the answers, wall seconds,
   simulated-I/O seconds and the number of updates applied. *)
let run_point store index batch ~with_writer =
  Store.with_reader store @@ fun pinned ->
  Serve.with_service ~jobs @@ fun srv ->
  Serve.add_tenant srv "bench" (Serve.Mem (pinned, index));
  Disk.reset_stats (Store.disk store);
  let stop = Atomic.make false in
  let updates = Atomic.make 0 in
  let writer =
    if not with_writer then None
    else
      Some
        (Domain.spawn (fun () ->
             let n = Tree.size (Store.tree store) in
             let v = ref 1 in
             while not (Atomic.get stop) do
               let grant = not (Store.accessible store ~subject:0 !v) in
               ignore (Update.set_node_accessibility store ~subject:0 ~grant !v);
               Atomic.incr updates;
               v := 1 + ((!v + 97) mod (n - 1));
               (* continuous and close to CPU-saturating: an update
                  costs about 1 ms of CPU (an O(transitions) splice
                  over ~17k transitions at CI scale) against this
                  0.2 ms pause, so the writer holds most of one core;
                  the pause only lets the readers in between update
                  windows *)
               Unix.sleepf 0.0002
             done))
  in
  let t0 = Unix.gettimeofday () in
  let answers = Serve.run_batch srv ~tenant:"bench" batch in
  let wall = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Option.iter Domain.join writer;
  let sim_io = Disk.simulated_us (Store.disk store) /. 1e6 in
  (answers, wall, sim_io, Atomic.get updates)

let readers_under_updates () =
  let tree, store, index = setup () in
  let entries = Query_mix.generate ~n:(32 * scale) ~subjects:n_subjects ~seed:93 () in
  let mix =
    List.map
      (fun e -> (Xpath.parse e.Query_mix.xpath, semantics e.Query_mix.semantics))
      entries
  in
  let batch = List.concat (List.init rounds (fun _ -> mix)) in
  let n = List.length batch in
  header "MVCC: reader throughput under continuous updates";
  Printf.printf "XMark instance: %d nodes, %d queries on %d reader domains\n%!"
    (Tree.size tree) n jobs;
  let idle_ans, idle_wall, idle_io, _ = run_point store index batch ~with_writer:false in
  let cont_ans, cont_wall, cont_io, updates =
    run_point store index batch ~with_writer:true
  in
  let identical = idle_ans = cont_ans in
  let modeled w io = w +. (io /. float_of_int jobs) in
  let idle_m = modeled idle_wall idle_io and cont_m = modeled cont_wall cont_io in
  let qps m = float_of_int n /. Float.max m 1e-9 in
  let ratio = qps cont_m /. Float.max (qps idle_m) 1e-9 in
  table
    [
      [ "writer"; "wall ms"; "sim io ms"; "modeled ms"; "modeled q/s" ];
      [ "idle"; fmt_f (idle_wall *. 1e3); fmt_f (idle_io *. 1e3);
        fmt_f (idle_m *. 1e3); fmt_f (qps idle_m) ];
      [ Printf.sprintf "%d updates" updates; fmt_f (cont_wall *. 1e3);
        fmt_f (cont_io *. 1e3); fmt_f (cont_m *. 1e3); fmt_f (qps cont_m) ];
    ];
  Printf.printf
    "pinned answers %s across runs; contended throughput %.1f%% of idle (%s \
     80%% target)\n%!"
    (if identical then "identical" else "DIVERGED")
    (100. *. ratio)
    (if ratio >= 0.8 then "meets" else "MISSES");
  ( Json.Obj
      [
        ("nodes", Json.num_of_int (Tree.size tree));
        ("queries", Json.num_of_int n);
        ("rounds", Json.num_of_int rounds);
        ("jobs", Json.num_of_int jobs);
        ("updates_during_run", Json.num_of_int updates);
        ("idle_modeled_s", Json.Num idle_m);
        ("contended_modeled_s", Json.Num cont_m);
        ("idle_qps", Json.Num (qps idle_m));
        ("contended_qps", Json.Num (qps cont_m));
        ("ratio", Json.Num ratio);
        ("answers_identical", Json.Bool identical);
      ],
    identical && ratio >= 0.8 && updates > 0 )

let group_commit () =
  header "MVCC: group commit vs per-record flushing";
  let tree = Xmark.generate_nodes ~seed:94 (1_500 * scale) in
  let labeling = Synth_acl.generate_multi tree ~seed:95 ~n_subjects:4 () in
  let store = Store.create ~page_size:512 ~pool_capacity:8 tree (Dol.of_labeling labeling) in
  let n = Tree.size tree in
  let base = Db_file.to_bytes store in
  let k = 64 in
  let updates =
    List.init k (fun i st ->
        let v = 1 + ((i * 131) mod (n - 1)) in
        let s = i mod 4 in
        let grant = not (Store.accessible st ~subject:s v) in
        ignore (Update.set_node_accessibility st ~subject:s ~grant v))
  in
  let commit ~max_batch =
    let gc = Group_commit.create ~max_batch base in
    let t0 = Unix.gettimeofday () in
    Group_commit.submit_batch gc updates;
    let wall = Unix.gettimeofday () -. t0 in
    let s = Group_commit.stats gc in
    let modeled = wall +. (float_of_int s.Group_commit.modeled_flush_us /. 1e6) in
    (Group_commit.image gc, s, wall, modeled)
  in
  let img1, s1, wall1, m1 = commit ~max_batch:1 in
  let img16, s16, wall16, m16 = commit ~max_batch:16 in
  let identical = Bytes.equal img1 img16 in
  let speedup = m1 /. Float.max m16 1e-9 in
  table
    [
      [ "path"; "records"; "flushes"; "wall ms"; "modeled ms" ];
      [ "per-record"; string_of_int s1.Group_commit.records;
        string_of_int s1.Group_commit.flushes; fmt_f (wall1 *. 1e3);
        fmt_f (m1 *. 1e3) ];
      [ "batch=16"; string_of_int s16.Group_commit.records;
        string_of_int s16.Group_commit.flushes; fmt_f (wall16 *. 1e3);
        fmt_f (m16 *. 1e3) ];
    ];
  Printf.printf
    "final images %s; modeled durable speedup %.2fx (%s 2x target)\n%!"
    (if identical then "byte-identical" else "DIVERGED")
    speedup
    (if speedup >= 2.0 then "meets" else "MISSES");
  ( Json.Obj
      [
        ("records", Json.num_of_int k);
        ("flushes_per_record", Json.num_of_int s1.Group_commit.flushes);
        ("flushes_batched", Json.num_of_int s16.Group_commit.flushes);
        ("modeled_per_record_s", Json.Num m1);
        ("modeled_batched_s", Json.Num m16);
        ("speedup", Json.Num speedup);
        ("images_identical", Json.Bool identical);
      ],
    identical && speedup >= 2.0
    && s16.Group_commit.flushes < s1.Group_commit.flushes )

let run () =
  let readers_doc, readers_ok = readers_under_updates () in
  let commit_doc, commit_ok = group_commit () in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "mvcc");
        ("readers", readers_doc);
        ("group_commit", commit_doc);
      ]
  in
  let path = "BENCH_mvcc.json" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path;
  if not (readers_ok && commit_ok) then exit 1
