(** Serve bench: sustained multi-tenant QPS and tail latency.

    Four tenant shards (each its own store: private disk, buffer pool,
    run index) with a ~1000-subject synthetic ACL population apiece are
    served by a 4-worker {!Serve} instance.  One driver domain per
    tenant submits seeded {!Query_mix} waves and drains its own tickets
    in submission order — per-tenant in-order draining matches the
    scheduler's per-tenant FIFO dispatch, so bounded ticket buffers
    always make progress (a single consumer draining all tenants'
    tickets in one fixed order can stall against backpressure when
    results exceed the buffer).  Latency is measured client-side
    (submit to fully drained) into per-driver lists and merged into an
    obs histogram from the main domain only, as histograms are
    single-writer.

    Checks enforced here and by ci/check_bench.py on BENCH_serve.json:
    - streamed answers are byte-identical to materialized {!Engine.run}
      on every query of the first wave (per tenant);
    - the per-query buffered-result bound bites: the service-wide
      high-water mark of buffered answers stays <= 2 x chunk while the
      largest single result exceeds that bound (memory is bounded by
      the chunk size, not the answer count);
    - sustained QPS is reported with p50/p95/p99 latency, the shed
      count, and a no-regression ratio against a sequential
      materialized drain of the same mix. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve
module Metrics = Dolx_obs.Metrics
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Query_mix = Dolx_workload.Query_mix
module Json = Dolx_obs.Json
open Bench_common

let tenants = env_int "DOLX_BENCH_SERVE_TENANTS" 4

let nodes = env_int "DOLX_BENCH_SERVE_NODES" (12_000 * scale)

let subjects_per_tenant = env_int "DOLX_BENCH_SERVE_SUBJECTS" 1000

let secs = env_float "DOLX_BENCH_SERVE_SECS" 6.0

let jobs = 4

let chunk = 64

let wave_n = 24 (* queries per tenant per wave *)

let seed0 = 1331

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

let tenant_name i = Printf.sprintf "tenant%d" i

(* One store per tenant: distinct documents and ACL populations, so the
   shard routing is real, not N handles on one image. *)
let make_shard i =
  let tree = Xmark.generate_nodes ~seed:(seed0 + i) nodes in
  let labeling =
    Synth_acl.generate_multi tree ~seed:(seed0 + (100 * i))
      ~n_subjects:subjects_per_tenant ~n_archetypes:20 ~perturb:0.05 ()
  in
  let dol = Dol.of_labeling labeling in
  let store = Store.create ~page_size:1024 ~pool_capacity:64 tree dol in
  (store, Tag_index.build tree)

let wave_entries ~wave ~tenant =
  Query_mix.generate ~n:wave_n ~subjects:subjects_per_tenant
    ~seed:(seed0 + (131 * wave) + tenant)
    ()

let run () =
  header "serve: sustained multi-tenant QPS / tail latency";
  Printf.printf
    "%d tenants x %d nodes x %d subjects each (%d total), %d workers, chunk \
     %d, %gs\n%!"
    tenants nodes subjects_per_tenant
    (tenants * subjects_per_tenant)
    jobs chunk secs;
  let shards = Array.init tenants make_shard in
  (* sequential materialized baseline over one wave per tenant *)
  let baseline_queries =
    Array.init tenants (fun i ->
        List.map
          (fun e -> (e.Query_mix.xpath, semantics e.Query_mix.semantics))
          (wave_entries ~wave:0 ~tenant:i))
  in
  let n_baseline = tenants * wave_n in
  let t0 = Unix.gettimeofday () in
  let baseline =
    Array.mapi
      (fun i queries ->
        let store, index = shards.(i) in
        List.map
          (fun (xpath, sem) -> (Engine.query store index xpath sem).Engine.answers)
          queries)
      baseline_queries
  in
  let seq_s = Unix.gettimeofday () -. t0 in
  let seq_qps = float_of_int n_baseline /. Float.max seq_s 1e-9 in
  let lat = Metrics.histogram "serve.latency_ms" in
  (* One driver domain per tenant: submits waves and drains its own
     tickets in submission order (= per-tenant dispatch order). *)
  let driver srv deadline i () =
    let name = tenant_name i in
    let served = ref 0 and identical = ref true and maxa = ref 0 in
    let lats = ref [] in
    (* wave 0: every streamed result checked against the baseline *)
    let tickets =
      List.map
        (fun (xpath, sem) -> Serve.submit srv ~tenant:name xpath sem)
        baseline_queries.(i)
    in
    List.iter2
      (fun tk expected ->
        let got = Serve.collect tk in
        if got <> expected then identical := false;
        maxa := max !maxa (List.length got);
        incr served)
      tickets baseline.(i);
    (* sustained load until the deadline *)
    let wave = ref 0 in
    while Unix.gettimeofday () < deadline do
      incr wave;
      let tickets =
        List.filter_map
          (fun e ->
            match
              Serve.submit srv ~tenant:name e.Query_mix.xpath
                (semantics e.Query_mix.semantics)
            with
            | tk -> Some (Unix.gettimeofday (), tk)
            | exception Serve.Overloaded -> None)
          (wave_entries ~wave:!wave ~tenant:i)
      in
      List.iter
        (fun (t_submit, tk) ->
          let n = List.length (Serve.collect tk) in
          maxa := max !maxa n;
          lats := ((Unix.gettimeofday () -. t_submit) *. 1000.) :: !lats;
          incr served)
        tickets
    done;
    (!served, !identical, !maxa, !lats)
  in
  let stats, results, wall =
    Serve.with_service ~jobs ~chunk ~buffer_chunks:4 ~max_queued:4096
      (fun srv ->
        Array.iteri
          (fun i (store, index) ->
            Serve.add_tenant srv (tenant_name i) (Serve.Mem (store, index)))
          shards;
        let t1 = Unix.gettimeofday () in
        let deadline = t1 +. secs in
        let drivers =
          Array.init tenants (fun i -> Domain.spawn (driver srv deadline i))
        in
        let results = Array.map Domain.join drivers in
        (Serve.stats srv, results, Unix.gettimeofday () -. t1))
  in
  let served = ref 0 and identical = ref true and max_answers = ref 0 in
  Array.iter
    (fun (n, ok, maxa, lats) ->
      served := !served + n;
      identical := !identical && ok;
      max_answers := max !max_answers maxa;
      List.iter (Metrics.observe lat) lats)
    results;
  let qps = float_of_int !served /. Float.max wall 1e-9 in
  let sum = Metrics.summary lat in
  let peak_bound = 2 * chunk in
  let peak_ok = stats.Serve.peak_buffered <= peak_bound in
  let bound_bites = !max_answers > peak_bound in
  Printf.printf "served %d queries in %.1fs: %.1f qps (sequential drain %.1f)\n"
    !served wall qps seq_qps;
  Printf.printf "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f (%d obs)\n"
    sum.Metrics.p50 sum.Metrics.p95 sum.Metrics.p99 sum.Metrics.max
    sum.Metrics.count;
  Printf.printf
    "peak buffered %d answers (bound %d, largest result %d), shed %d, \
     identical %b\n"
    stats.Serve.peak_buffered peak_bound !max_answers stats.Serve.shed
    !identical;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "serve");
        ("tenants", Json.num_of_int tenants);
        ("nodes_per_tenant", Json.num_of_int nodes);
        ("subjects_per_tenant", Json.num_of_int subjects_per_tenant);
        ("total_subjects", Json.num_of_int (tenants * subjects_per_tenant));
        ("jobs", Json.num_of_int jobs);
        ("chunk", Json.num_of_int chunk);
        ("duration_s", Json.Num wall);
        ("served", Json.num_of_int !served);
        ("shed", Json.num_of_int stats.Serve.shed);
        ("qps", Json.Num qps);
        ("seq_qps", Json.Num seq_qps);
        ("qps_ratio", Json.Num (qps /. Float.max seq_qps 1e-9));
        ( "latency_ms",
          Json.Obj
            [
              ("count", Json.num_of_int sum.Metrics.count);
              ("p50", Json.Num sum.Metrics.p50);
              ("p95", Json.Num sum.Metrics.p95);
              ("p99", Json.Num sum.Metrics.p99);
              ("max", Json.Num sum.Metrics.max);
            ] );
        ("identical", Json.Bool !identical);
        ("peak_buffered", Json.num_of_int stats.Serve.peak_buffered);
        ("peak_bound", Json.num_of_int peak_bound);
        ("peak_ok", Json.Bool peak_ok);
        ("max_answers", Json.num_of_int !max_answers);
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote BENCH_serve.json\n";
  if not !identical then begin
    Printf.printf "FAIL: streamed answers diverged from materialized\n";
    exit 1
  end;
  if not peak_ok then begin
    Printf.printf "FAIL: buffered answers exceeded the chunk bound (%d > %d)\n"
      stats.Serve.peak_buffered peak_bound;
    exit 1
  end;
  if not bound_bites then
    Printf.printf
      "note: largest result (%d) within the bound (%d); grow \
       DOLX_BENCH_SERVE_NODES for a binding check\n"
      !max_answers peak_bound
