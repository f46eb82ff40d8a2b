(** Wire bench: QPS and tail latency through the socket transport.

    A {!Dolx_wire.Server} fronts a 4-worker {!Serve} instance with two
    tenant shards.  Three phases:

    - identity: every wave-0 query is collected over the socket and
      checked byte-identical to materialized {!Engine.query} — the wire
      layer must be invisible to answers;
    - sustained: N $(b,dolx connect) OS processes drive seeded
      {!Query_mix} waves for the bench duration, reporting per-query
      latency (DOLX-LAT lines) and totals (DOLX-DONE) over pipes, so
      the measured path includes frame encode/decode and two socket
      hops; when the CLI binary is not built the drivers fall back to
      in-process {!Client} threads;
    - disconnect: one extra client slams its connection mid-stream, and
      the pinned-reader count must return to zero — the wire layer's
      acceptance property, gated here and by ci/check_bench.py on
      BENCH_wire.json.

    Over all phases it also reports the server's socket writes and the
    answer chunks it sent, each per served query.  A pipelined
    Submit+Next is answered in one write and a stream's last chunk is
    end-marked, so a k-chunk query costs k writes (k + 1 when it ends
    on a bare End) where strict request→response cost k + 2;
    ci/check_bench.py gates writes per query at chunks per query + 1. *)

module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve
module Server = Dolx_wire.Server
module Client = Dolx_wire.Client
module Metrics = Dolx_obs.Metrics
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Query_mix = Dolx_workload.Query_mix
module Json = Dolx_obs.Json
open Bench_common

let tenants = 2

let nodes = env_int "DOLX_BENCH_WIRE_NODES" (8_000 * scale)

let subjects_per_tenant = env_int "DOLX_BENCH_WIRE_SUBJECTS" 400

let secs = env_float "DOLX_BENCH_WIRE_SECS" 5.0

let clients = env_int "DOLX_BENCH_WIRE_CLIENTS" 3

let jobs = 4

let chunk = 64

let wave_n = 16

let seed0 = 1447

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

let tenant_name i = Printf.sprintf "tenant%d" i

let make_shard i =
  let tree = Xmark.generate_nodes ~seed:(seed0 + i) nodes in
  let labeling =
    Synth_acl.generate_multi tree ~seed:(seed0 + (100 * i))
      ~n_subjects:subjects_per_tenant ~n_archetypes:20 ~perturb:0.05 ()
  in
  let dol = Dol.of_labeling labeling in
  let store = Store.create ~page_size:1024 ~pool_capacity:64 tree dol in
  (store, Tag_index.build tree)

(* The CLI binary, when built alongside us (dune exec / _build layout);
   the sustained drivers become real OS processes through it. *)
let dolx_exe =
  let candidate =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "dolx.exe")
  in
  if Sys.file_exists candidate then Some candidate else None

(* One OS-process driver: dolx connect --mix ... --report, stdout piped
   back here.  Returns (served, shed, latencies_ms). *)
let run_process_client exe ~path ~tenant ~seed =
  let argv =
    [|
      exe; "connect"; "--socket"; path; "--tenant"; tenant; "--mix";
      string_of_int wave_n; "--subjects"; string_of_int subjects_per_tenant;
      "--seed"; string_of_int seed; "--duration"; string_of_float secs;
      "--report";
    |]
  in
  let r, w = Unix.pipe ~cloexec:false () in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let served = ref 0 and shed = ref 0 and lats = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 9 && String.sub line 0 9 = "DOLX-LAT " then
         lats :=
           float_of_string (String.sub line 9 (String.length line - 9))
           :: !lats
       else
         try Scanf.sscanf line "DOLX-DONE served=%d shed=%d" (fun a b ->
                 served := a;
                 shed := b)
         with Scanf.Scan_failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  close_in_noerr ic;
  let _, status = Unix.waitpid [] pid in
  let clean = status = Unix.WEXITED 0 in
  (clean, !served, !shed, !lats)

(* In-process fallback driver with the same workload shape. *)
let run_thread_client ~path ~tenant ~seed =
  let cl = Client.connect ~retry_for:5.0 path in
  let served = ref 0 and shed = ref 0 and lats = ref [] in
  let deadline = Unix.gettimeofday () +. secs in
  let wave = ref 0 in
  while Unix.gettimeofday () < deadline do
    incr wave;
    Query_mix.generate ~n:wave_n ~subjects:subjects_per_tenant
      ~seed:(seed + (1000 * !wave))
      ()
    |> List.iter (fun e ->
           let t1 = Unix.gettimeofday () in
           match
             Client.submit cl ~tenant e.Query_mix.xpath
               (semantics e.Query_mix.semantics)
           with
           | st ->
               ignore (Client.collect st);
               lats := ((Unix.gettimeofday () -. t1) *. 1000.) :: !lats;
               incr served
           | exception Serve.Overloaded -> incr shed)
  done;
  Client.close cl;
  (true, !served, !shed, !lats)

(* The disconnect client: pull one chunk, then slam the fd. *)
let run_abort_client exe ~path =
  match exe with
  | Some exe ->
      let argv =
        [|
          exe; "connect"; "--socket"; path; "--tenant"; "tenant0";
          "--abort-after"; "1"; "//item";
        |]
      in
      let pid =
        Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr
      in
      ignore (Unix.waitpid [] pid)
  | None ->
      let cl = Client.connect ~retry_for:5.0 path in
      let st = Client.submit cl ~tenant:"tenant0" "//item" Engine.Insecure in
      ignore (Client.next_chunk st);
      Client.abort cl

let run () =
  header "wire: socket transport QPS / tail latency / disconnect safety";
  let mode = if dolx_exe = None then "threads" else "processes" in
  Printf.printf
    "%d tenants x %d nodes x %d subjects, %d workers, chunk %d, %d %s, %gs\n%!"
    tenants nodes subjects_per_tenant jobs chunk clients mode secs;
  let shards = Array.init tenants make_shard in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dolx-bench-%d.sock" (Unix.getpid ()))
  in
  let identical = ref true
  and served = ref 0
  and shed = ref 0
  and unclean = ref 0
  and leaked = ref 0
  and wall = ref 0.0
  and total_served = ref 0 in
  let writes0 = Metrics.counter_value "wire.writes"
  and chunks0 = Metrics.counter_value "wire.chunks" in
  let lat = Metrics.histogram "wire.latency_ms" in
  Serve.with_service ~jobs ~chunk ~buffer_chunks:4 ~max_queued:4096 (fun srv ->
      Array.iteri
        (fun i (store, index) ->
          Serve.add_tenant srv (tenant_name i) (Serve.Mem (store, index)))
        shards;
      let server = Server.start srv ~path:sock ~name:"dolx-bench" in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          (* identity: wave 0 per tenant, socket vs materialized *)
          let cl = Client.connect sock in
          Array.iteri
            (fun i (store, index) ->
              Query_mix.generate ~n:wave_n ~subjects:subjects_per_tenant
                ~seed:(seed0 + i) ()
              |> List.iter (fun e ->
                     let sem = semantics e.Query_mix.semantics in
                     let expected =
                       (Engine.query store index e.Query_mix.xpath sem)
                         .Engine.answers
                     in
                     let got =
                       Client.collect
                         (Client.submit cl ~tenant:(tenant_name i)
                            e.Query_mix.xpath sem)
                     in
                     if got <> expected then identical := false))
            shards;
          Client.close cl;
          (* sustained: concurrent clients + one mid-stream abort *)
          let t1 = Unix.gettimeofday () in
          let driver k () =
            let tenant = tenant_name (k mod tenants) in
            let seed = seed0 + (7 * k) in
            match dolx_exe with
            | Some exe -> run_process_client exe ~path:sock ~tenant ~seed
            | None -> run_thread_client ~path:sock ~tenant ~seed
          in
          let results = Array.make clients (true, 0, 0, []) in
          let threads =
            Array.init clients (fun k ->
                Thread.create (fun () -> results.(k) <- driver k ()) ())
          in
          run_abort_client dolx_exe ~path:sock;
          Array.iter Thread.join threads;
          wall := Unix.gettimeofday () -. t1;
          Array.iter
            (fun (clean, n, sh, lats) ->
              if not clean then incr unclean;
              served := !served + n;
              shed := !shed + sh;
              List.iter (Metrics.observe lat) lats)
            results;
          (* disconnect safety: pins must drain back to zero *)
          let rec await tries =
            let pins = Serve.pinned_readers srv in
            if pins = 0 || tries = 0 then pins
            else begin
              Unix.sleepf 0.05;
              await (tries - 1)
            end
          in
          leaked := await 100;
          total_served := (Serve.stats srv).Serve.served));
  let per_query name base =
    float_of_int (Metrics.counter_value name - base)
    /. float_of_int (max 1 !total_served)
  in
  let writes_per_query = per_query "wire.writes" writes0
  and chunks_per_query = per_query "wire.chunks" chunks0 in
  let qps = float_of_int !served /. Float.max !wall 1e-9 in
  let sum = Metrics.summary lat in
  Printf.printf "served %d queries over the socket in %.1fs: %.1f qps\n"
    !served !wall qps;
  Printf.printf "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f (%d obs)\n"
    sum.Metrics.p50 sum.Metrics.p95 sum.Metrics.p99 sum.Metrics.max
    sum.Metrics.count;
  Printf.printf "identical %b, shed %d, leaked pins %d, unclean exits %d\n"
    !identical !shed !leaked !unclean;
  Printf.printf
    "server socket writes %.3f and chunks %.3f per served query (%d served)\n"
    writes_per_query chunks_per_query !total_served;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "wire");
        ("tenants", Json.num_of_int tenants);
        ("nodes_per_tenant", Json.num_of_int nodes);
        ("subjects_per_tenant", Json.num_of_int subjects_per_tenant);
        ("jobs", Json.num_of_int jobs);
        ("chunk", Json.num_of_int chunk);
        ("clients", Json.num_of_int clients);
        ("client_mode", Json.Str mode);
        ("duration_s", Json.Num !wall);
        ("served", Json.num_of_int !served);
        ("shed", Json.num_of_int !shed);
        ("qps", Json.Num qps);
        ( "latency_ms",
          Json.Obj
            [
              ("count", Json.num_of_int sum.Metrics.count);
              ("p50", Json.Num sum.Metrics.p50);
              ("p95", Json.Num sum.Metrics.p95);
              ("p99", Json.Num sum.Metrics.p99);
              ("max", Json.Num sum.Metrics.max);
            ] );
        ("queries_served", Json.num_of_int !total_served);
        ("writes_per_query", Json.Num writes_per_query);
        ("chunks_per_query", Json.Num chunks_per_query);
        ("identical", Json.Bool !identical);
        ("leaked_pins", Json.num_of_int !leaked);
        ("unclean_exits", Json.num_of_int !unclean);
      ]
  in
  let oc = open_out "BENCH_wire.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote BENCH_wire.json\n";
  if not !identical then begin
    Printf.printf "FAIL: socket answers diverged from materialized\n";
    exit 1
  end;
  if !leaked <> 0 then begin
    Printf.printf "FAIL: %d reader pin(s) leaked after disconnects\n" !leaked;
    exit 1
  end;
  if !unclean > 0 then begin
    Printf.printf "FAIL: %d client process(es) exited unclean\n" !unclean;
    exit 1
  end;
  if !served = 0 then begin
    Printf.printf "FAIL: no queries served over the socket\n";
    exit 1
  end
