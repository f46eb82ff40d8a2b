(* dolx — command-line front end.

   Subcommands:
     generate     emit a synthetic XMark-like document
     stats        shape statistics of an XML document
     label        compile a policy file against a document; print DOL stats
     query        evaluate a twig query as a subject (streamed output)
     query-batch  evaluate a batch of queries on --jobs worker domains
     serve        drive the multi-tenant streaming query service
                  (--socket PATH exposes it over a Unix-socket wire server)
     connect      wire-protocol client for a serve --socket server
     view         export a subject's secured view of a document
     filter       stream a document through the one-pass secure filter
     save-dol     compile a policy and persist the DOL
     inspect-dol  print statistics of a persisted DOL
     compile-db   compile document + policy into a one-file database
     query-db     query a compiled database file
     stats-db     print statistics of a compiled database file

   query and query-db accept --metrics[=json]: the default metrics
   registry and span trace are reset before the engine run and printed
   after it (JSON as the final stdout line).

   Policy files use the Dolx_policy.Policy_file language; node anchors
   written as @<xpath> are resolved against the document.

   Exit status 2 with one line on stderr means bad input: an undeclared
   subject or a malformed query. *)

module Tree = Dolx_xml.Tree
module Parser = Dolx_xml.Parser
module Serializer = Dolx_xml.Serializer
module Tree_stats = Dolx_xml.Tree_stats
module Subject = Dolx_policy.Subject
module Mode = Dolx_policy.Mode
module Policy_file = Dolx_policy.Policy_file
module Propagate = Dolx_policy.Propagate
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Store = Dolx_core.Secure_store
module Secure_view = Dolx_core.Secure_view
module Cam = Dolx_cam.Cam
module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve
module Tag_index = Dolx_index.Tag_index
module Xmark = Dolx_workload.Xmark
module Query_mix = Dolx_workload.Query_mix
module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace
module Wire_server = Dolx_wire.Server
module Wire_client = Dolx_wire.Client

(* reference the module so its commit.* counters register even in
   binaries that only read them by name (stats-db, --metrics) *)
let _link_group_commit : Dolx_core.Group_commit.t -> int =
  Dolx_core.Group_commit.max_batch

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let load_doc path = Parser.parse (read_file path)

(* Resolve @<xpath> policy anchors by evaluating the path insecurely. *)
let make_resolver tree =
  let index = lazy (Tag_index.build tree) in
  let store =
    lazy (Store.create tree (Dol.of_bool_array (Array.make (Tree.size tree) true)))
  in
  fun key ->
    match Engine.query (Lazy.force store) (Lazy.force index) key Engine.Insecure with
    | { Engine.answers = []; _ } ->
        failwith (Printf.sprintf "policy anchor %S matches no node" key)
    | { Engine.answers; _ } -> answers

let load_policy tree path =
  Policy_file.load ~resolve:(make_resolver tree) (read_file path)

(* Bad input reported as a typed error (see the entry point below): one
   line on stderr, exit 2.  A malformed query raises
   [Dolx_nok.Xpath.Parse_error], a corrupt database or DOL file
   [Db_file.Corrupt] or [Persist.Corrupt]; each is reported the same
   way.  [Bad_input] carries the whole message: an out-of-range option
   value, a missing input, a malformed query-file line. *)
exception Unknown_subject of string

exception Unknown_mode of string

exception Bad_input of string

let bad_input fmt = Printf.ksprintf (fun m -> raise (Bad_input m)) fmt

let require_at_least lo name n =
  if n < lo then bad_input "%s must be at least %d, got %d" name lo n

let compile tree path ~mode =
  let subjects, modes, rules = load_policy tree path in
  let mode_id =
    match Mode.find_opt modes mode with
    | Some m -> m
    | None -> raise (Unknown_mode mode)
  in
  let labeling = Propagate.compile tree ~subjects ~mode:mode_id rules in
  (subjects, modes, labeling)

let subject_id subjects name =
  match Subject.find_opt subjects name with
  | Some s -> s
  | None -> raise (Unknown_subject name)

(* --- arguments --- *)

let doc_arg =
  Arg.(required & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"XML document.")

let policy_arg =
  Arg.(required & opt (some file) None & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Policy file.")

let mode_arg =
  Arg.(value & opt string "read" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"Action mode.")

let subject_arg =
  Arg.(required & opt (some string) None & info [ "s"; "subject" ] ~docv:"NAME" ~doc:"Subject.")

(* --metrics[=json]: observe the engine run through the default registry
   and print it afterwards.  JSON is emitted as the final stdout line so
   scripts can [tail -n 1 | parse]. *)
let metrics_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json) ] in
  Arg.(value
       & opt ~vopt:(Some `Human) (some fmt) None
       & info [ "metrics" ] ~docv:"FORMAT"
           ~doc:"Print metrics for the query run ($(b,human) or $(b,json)).")

(* Reset both the registry and the store's legacy counters right before
   the measured run, so the two views agree (see docs/ARCHITECTURE.md,
   "Observability"); wall-clock spans need a real clock. *)
let metrics_begin fmt store =
  match fmt with
  | None -> ()
  | Some _ ->
      Trace.set_clock Unix.gettimeofday;
      Trace.set_enabled true;
      Trace.reset ();
      Store.reset_stats store;
      Metrics.reset Metrics.default;
      (* reset zeroed the path-summary gauge; re-publish it *)
      Store.refresh_gauges store

let metrics_end fmt =
  match fmt with
  | None -> ()
  | Some `Human ->
      Fmt.pr "-- metrics --@.%a@." Metrics.pp Metrics.default;
      Fmt.pr "-- trace --@.%a@." (fun ppf () -> Trace.pp ppf ()) ()
  | Some `Json -> print_endline (Metrics.to_json_string Metrics.default)

(* --no-run-index: evaluate with the per-subject access-run index
   disabled, answering every check from the physical pages — the
   baseline side of `bench runs`. *)
let no_run_index_arg =
  Arg.(value & flag
       & info [ "no-run-index" ]
           ~doc:"Disable the per-subject access-run index; answer access \
                 checks from the physical pages.")

(* --no-path-summary: the ablation side of `bench summary` — plan
   without DataGuide candidate pruning. *)
let no_summary_arg =
  Arg.(value & flag
       & info [ "no-path-summary" ]
           ~doc:"Disable DataGuide (path-summary) candidate pruning and \
                 the summary-path plan in the engine.")

(* --- generate --- *)

let generate nodes seed output =
  let tree = Xmark.generate_nodes ~seed nodes in
  let xml = Serializer.to_string ~indent:true tree in
  (match output with
  | Some path -> write_file path xml
  | None -> print_string xml);
  Printf.eprintf "generated %d nodes\n" (Tree.size tree)

let generate_cmd =
  let nodes =
    Arg.(value & opt int 10_000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Approximate node count.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic XMark-like document")
    Term.(const generate $ nodes $ seed $ output)

(* --- stats --- *)

let stats doc =
  let tree = load_doc doc in
  Fmt.pr "%a@." Tree_stats.pp (Tree_stats.compute tree)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Document shape statistics")
    Term.(const stats $ doc_arg)

(* --- label --- *)

let label doc policy mode compare_cam =
  let tree = load_doc doc in
  let subjects, _, labeling = compile tree policy ~mode in
  let dol = Dol.of_labeling labeling in
  Fmt.pr "%a@." Dol.pp dol;
  Printf.printf "codebook: %d entries, %d bytes; embedded codes: %d bytes; density %.4f\n"
    (Codebook.count (Dol.codebook dol))
    (Dol.codebook_bytes dol) (Dol.embedded_bytes dol)
    (Dol.transition_density dol);
  if compare_cam then begin
    let total = ref 0 in
    for s = 0 to Subject.count subjects - 1 do
      let bools = Dolx_policy.Labeling.to_bool_array labeling ~subject:s in
      total := !total + Cam.label_count (Cam.build tree bools)
    done;
    Printf.printf "per-subject CAMs: %d labels total across %d subjects\n" !total
      (Subject.count subjects)
  end

let label_cmd =
  let cam = Arg.(value & flag & info [ "cam" ] ~doc:"Also build per-subject CAMs.") in
  Cmd.v (Cmd.info "label" ~doc:"Compile a policy into a DOL and report its size")
    Term.(const label $ doc_arg $ policy_arg $ mode_arg $ cam)

(* --- query --- *)

let node_path tree v =
  let rec go v acc =
    if v = Tree.nil then acc
    else go (Tree.parent tree v) ("/" ^ Tree.tag_name tree v ^ acc)
  in
  go v ""

(* Stream answers to stdout as the engine produces them: a chunked pull
   from Engine.stream, flushed per chunk, so output starts before the
   result set is complete and partial output survives a mid-query
   exception (the Fun.protect finalizer closes the stream — flushing its
   partial statistics — and flushes stdout).  Returns the answer count. *)
let print_stream tree store index q sem =
  let st = Engine.stream store index (Dolx_nok.Xpath.parse q) sem in
  Fun.protect
    ~finally:(fun () ->
      Engine.stream_close st;
      flush stdout)
    (fun () ->
      let rec pump () =
        match Engine.stream_next st with
        | [] -> ()
        | chunk ->
            List.iter
              (fun v ->
                let txt = Tree.text tree v in
                Printf.printf "%s%s\n" (node_path tree v)
                  (if txt = "" then "" else ": " ^ txt))
              chunk;
            flush stdout;
            pump ()
      in
      pump ());
  Engine.stream_emitted st

let query doc policy mode subject path_semantics no_run_index no_summary
    metrics q =
  let tree = load_doc doc in
  let subjects, _, labeling = compile tree policy ~mode in
  let s = subject_id subjects subject in
  let dol = Dol.of_labeling labeling in
  let store =
    Store.create ~run_index:(not no_run_index) ~path_summary:(not no_summary)
      tree dol
  in
  let index = Tag_index.build tree in
  let sem = if path_semantics then Engine.Secure_path s else Engine.Secure s in
  metrics_begin metrics store;
  let n = print_stream tree store index q sem in
  Printf.eprintf "%d answers\n" n;
  metrics_end metrics

let query_cmd =
  let path_sem =
    Arg.(value & flag & info [ "path-semantics" ]
           ~doc:"Use the Gabillon-Bruno semantics (connecting paths must be accessible).")
  in
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a twig query as a subject")
    Term.(const query $ doc_arg $ policy_arg $ mode_arg $ subject_arg $ path_sem
          $ no_run_index_arg $ no_summary_arg $ metrics_arg $ q)

(* --- query-batch --- *)

(* Batch evaluation on a [Serve] of [--jobs] workers: queries come either
   from a file of "SUBJECT QUERY" lines (SUBJECT = policy subject name,
   or "*" for an unsecured evaluation) or from a deterministic
   Query_mix stream over the policy's subject population. *)

let parse_query_file subjects path_semantics text =
  text
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (lineno, line) ->
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None ->
               bad_input "query file line %d: expected \"SUBJECT QUERY\", got %S"
                 lineno line
           | Some i ->
               let subj = String.sub line 0 i in
               let q =
                 String.trim (String.sub line (i + 1) (String.length line - i - 1))
               in
               let sem =
                 if subj = "*" then Engine.Insecure
                 else
                   let s = subject_id subjects subj in
                   if path_semantics then Engine.Secure_path s else Engine.Secure s
               in
               Some (q, sem))

let engine_semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

let semantics_name = function
  | Engine.Insecure -> "*"
  | Engine.Secure s -> Printf.sprintf "s%d" s
  | Engine.Secure_path s -> Printf.sprintf "s%d/path" s

let query_batch doc policy mode jobs path_semantics no_run_index no_summary
    metrics queries_file mix mix_seed =
  require_at_least 1 "--jobs" jobs;
  let tree = load_doc doc in
  let subjects, _, labeling = compile tree policy ~mode in
  let dol = Dol.of_labeling labeling in
  let store =
    Store.create ~run_index:(not no_run_index) ~path_summary:(not no_summary)
      tree dol
  in
  let index = Tag_index.build tree in
  let batch =
    match (queries_file, mix) with
    | Some path, _ -> parse_query_file subjects path_semantics (read_file path)
    | None, Some n ->
        require_at_least 0 "--mix" n;
        Query_mix.generate ~n ~subjects:(Subject.count subjects) ~seed:mix_seed ()
        |> List.map (fun e ->
               (e.Query_mix.xpath, engine_semantics e.Query_mix.semantics))
    | None, None -> bad_input "query-batch needs --queries FILE or --mix N"
  in
  (* every query parses before any runs: a malformed one is a typed
     input error with nothing printed *)
  let patterns = List.map (fun (q, sem) -> (Dolx_nok.Xpath.parse q, sem)) batch in
  (* each query's reader pin is released when its ticket drains, and
     the workers are joined on the way out, even when a query raises *)
  Serve.with_service ~jobs (fun srv ->
      Serve.add_tenant srv "batch" (Serve.Mem (store, index));
      metrics_begin metrics store;
      let t0 = Unix.gettimeofday () in
      let answers = Serve.run_batch srv ~tenant:"batch" patterns in
      let dt = Unix.gettimeofday () -. t0 in
      List.iter2
        (fun (q, sem) a ->
          Printf.printf "%s\t%s\t%d answers\n" (semantics_name sem) q
            (List.length a))
        batch answers;
      Printf.eprintf "%d queries on %d worker(s): %.3fs wall (%.1f queries/s)\n"
        (List.length batch) jobs dt
        (float_of_int (List.length batch) /. Float.max dt 1e-9));
  metrics_end metrics

let query_batch_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains per batch.")
  in
  let path_sem =
    Arg.(value & flag & info [ "path-semantics" ]
           ~doc:"Use the Gabillon-Bruno semantics for file-sourced queries.")
  in
  let queries_file =
    Arg.(value & opt (some file) None
         & info [ "queries" ] ~docv:"FILE"
             ~doc:"File of $(i,SUBJECT QUERY) lines ($(b,*) = insecure).")
  in
  let mix =
    Arg.(value & opt (some int) None
         & info [ "mix" ] ~docv:"N"
             ~doc:"Generate $(docv) queries from the XMark benchmark mix.")
  in
  let mix_seed =
    Arg.(value & opt int 7
         & info [ "seed"; "mix-seed" ] ~docv:"SEED"
             ~doc:"Mix PRNG seed (reproducible workloads).")
  in
  Cmd.v
    (Cmd.info "query-batch"
       ~doc:"Evaluate a batch of twig queries on worker domains")
    Term.(const query_batch $ doc_arg $ policy_arg $ mode_arg $ jobs $ path_sem
          $ no_run_index_arg $ no_summary_arg $ metrics_arg $ queries_file
          $ mix $ mix_seed)

(* --- serve: the multi-tenant streaming query service --- *)

(* An in-process serving session: N tenants, each its own store instance
   over the compiled labeling (private buffer pool, disk, run index),
   driven with seeded Query_mix waves until the duration elapses.
   Latency is measured client-side per ticket (submit to fully drained)
   and fed into an obs histogram from this thread — histograms are
   single-writer. *)
(* serve --socket PATH: expose the service over the wire protocol and
   block until SIGINT/SIGTERM or the --duration watchdog fires.  After
   the wire server stops, every disconnect must already have closed its
   tickets, so the pinned-reader count is polled back to zero before the
   workers shut down — a leak here is a hard failure. *)
let serve_socket srv ~tenants ~jobs ~duration path =
  let wire = Wire_server.start srv ~path ~name:"dolx" in
  let stop = ref false in
  let handler _ = stop := true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
  Printf.printf "serving on %s: %d tenant(s), %d worker(s)\n%!" path tenants
    jobs;
  let deadline =
    if duration <= 0.0 then infinity else Unix.gettimeofday () +. duration
  in
  while (not !stop) && Unix.gettimeofday () < deadline do
    try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ()
  done;
  Wire_server.stop wire;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  (* tickets are closed; their workers release reader pins at the next
     chunk boundary — give them a moment before declaring a leak *)
  let rec await_pins tries =
    let pins = Serve.pinned_readers srv in
    if pins = 0 || tries = 0 then pins
    else begin
      Unix.sleepf 0.05;
      await_pins (tries - 1)
    end
  in
  let pins = await_pins 100 in
  let s = Serve.stats srv in
  Printf.printf
    "clean shutdown: served %d, shed %d, %d session(s) accepted, %d \
     disconnect(s), pinned readers %d\n\
     %!"
    s.Serve.served s.Serve.shed
    (Wire_server.accepted wire)
    (Wire_server.disconnects wire)
    pins;
  if pins <> 0 then begin
    Printf.eprintf "FAIL: %d reader pin(s) leaked past shutdown\n" pins;
    exit 1
  end

let serve doc policy mode tenants jobs seed duration chunk max_queued socket =
  require_at_least 1 "--tenants" tenants;
  require_at_least 1 "--jobs" jobs;
  require_at_least 1 "--chunk" chunk;
  require_at_least 1 "--max-queued" max_queued;
  let tree = load_doc doc in
  let subjects, _, labeling = compile tree policy ~mode in
  let dol = Dol.of_labeling labeling in
  let index = Tag_index.build tree in
  let n_subjects = Subject.count subjects in
  let tenant_name i = Printf.sprintf "tenant%d" i in
  Serve.with_service ~jobs ~chunk ~max_queued (fun srv ->
      for i = 0 to tenants - 1 do
        let store = Store.create tree dol in
        Serve.add_tenant srv (tenant_name i) (Serve.Mem (store, index))
      done;
      match socket with
      | Some path -> serve_socket srv ~tenants ~jobs ~duration path
      | None ->
      let lat = Metrics.histogram "serve.latency_ms" in
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. duration in
      (* One driver domain per tenant, each draining its own tickets in
         submission order — per-tenant in-order draining matches the
         scheduler's FIFO dispatch, so bounded ticket buffers always
         make progress. *)
      let driver i () =
        let served = ref 0 and shed = ref 0 and wave = ref 0 in
        let lats = ref [] in
        while Unix.gettimeofday () < deadline do
          incr wave;
          let entries =
            Query_mix.generate ~n:8 ~subjects:n_subjects
              ~seed:(seed + (1000 * !wave) + i)
              ()
          in
          let tickets =
            List.filter_map
              (fun e ->
                let t1 = Unix.gettimeofday () in
                match
                  Serve.submit srv ~tenant:(tenant_name i) e.Query_mix.xpath
                    (engine_semantics e.Query_mix.semantics)
                with
                | tk -> Some (t1, tk)
                | exception Serve.Overloaded ->
                    incr shed;
                    None)
              entries
          in
          List.iter
            (fun (t1, tk) ->
              ignore (Serve.collect tk);
              lats := ((Unix.gettimeofday () -. t1) *. 1000.) :: !lats;
              incr served)
            tickets
        done;
        (!served, !shed, !lats)
      in
      let drivers = Array.init tenants (fun i -> Domain.spawn (driver i)) in
      let per_tenant = Array.map Domain.join drivers in
      let served = ref 0 and client_shed = ref 0 in
      Array.iter
        (fun (n, shed, lats) ->
          served := !served + n;
          client_shed := !client_shed + shed;
          List.iter (Metrics.observe lat) lats)
        per_tenant;
      let dt = Unix.gettimeofday () -. t0 in
      let s = Serve.stats srv in
      let sum = Metrics.summary lat in
      Printf.printf
        "served %d queries for %d tenant(s) on %d worker(s) in %.1fs: %.1f \
         qps\n"
        !served tenants jobs dt
        (float_of_int !served /. Float.max dt 1e-9);
      Printf.printf "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n"
        sum.Metrics.p50 sum.Metrics.p95 sum.Metrics.p99 sum.Metrics.max;
      Printf.printf
        "shed %d, peak buffered %d answers (chunk %d), open shards %d\n"
        (s.Serve.shed + !client_shed)
        s.Serve.peak_buffered chunk s.Serve.open_shards)

let serve_cmd =
  let tenants =
    Arg.(value & opt int 2
         & info [ "tenants" ] ~docv:"N" ~doc:"Tenant shards to register.")
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains draining the queues.")
  in
  let seed =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"SEED" ~doc:"Query-mix PRNG seed (reproducible load).")
  in
  let duration =
    Arg.(value & opt float 10.0
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"How long to drive the service.")
  in
  let chunk =
    Arg.(value & opt int 256
         & info [ "chunk" ] ~docv:"N" ~doc:"Answers per stream chunk.")
  in
  let max_queued =
    Arg.(value & opt int 1024
         & info [ "max-queued" ] ~docv:"N"
             ~doc:"Admission bound; excess submissions are shed.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve over the wire protocol on a Unix socket at \
                   $(docv) instead of driving a built-in mix; runs until \
                   SIGINT/SIGTERM or $(b,--duration) seconds elapse \
                   (0 = no watchdog).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Drive the multi-tenant streaming query service with a seeded mix")
    Term.(const serve $ doc_arg $ policy_arg $ mode_arg $ tenants $ jobs $ seed
          $ duration $ chunk $ max_queued $ socket)

(* --- connect: wire-protocol client --- *)

(* Drives a serve --socket server from a separate OS process: positional
   queries, or seeded Query_mix waves (--mix N), optionally repeated
   until --duration elapses.  --abort-after K slams the connection shut
   after the Kth chunk, mid-stream — the server must treat it as a
   disconnect and release the query's reader pin. *)
let connect socket tenant subject path_semantics mix mix_subjects seed duration
    show_stats print_ids abort_after report queries =
  (* reject a malformed query before dialing, as a typed error *)
  List.iter (fun q -> ignore (Dolx_nok.Xpath.parse q)) queries;
  let cl = Wire_client.connect ~retry_for:10.0 ~client:"dolx-connect" socket in
  let aborted = ref false in
  Fun.protect
    ~finally:(fun () -> if not !aborted then Wire_client.close cl)
    (fun () ->
      let served = ref 0 and shed = ref 0 and answers = ref 0 in
      let chunks_pulled = ref 0 in
      let sem_of_subject () =
        match subject with
        | None -> Engine.Insecure
        | Some s ->
            if path_semantics then Engine.Secure_path s else Engine.Secure s
      in
      (* Runs one query; returns false once the connection is gone. *)
      let run_one (q, sem) =
        let t1 = Unix.gettimeofday () in
        match Wire_client.submit cl ~tenant q sem with
        | exception Serve.Overloaded ->
            incr shed;
            true
        | st ->
            let ids = ref [] in
            let rec drain () =
              match Wire_client.next_chunk st with
              | [] -> true
              | chunk ->
                  ids := List.rev_append chunk !ids;
                  incr chunks_pulled;
                  if abort_after > 0 && !chunks_pulled >= abort_after then begin
                    (* no goodbye: what a killed client looks like *)
                    Wire_client.abort cl;
                    aborted := true;
                    Printf.eprintf "aborted connection after %d chunk(s)\n%!"
                      !chunks_pulled;
                    false
                  end
                  else drain ()
            in
            let finished = drain () in
            if finished then begin
              incr served;
              answers := !answers + List.length !ids;
              if report then
                Printf.printf "DOLX-LAT %.3f\n"
                  ((Unix.gettimeofday () -. t1) *. 1000.);
              if print_ids then
                Printf.printf "%s\t%s\n" q
                  (String.concat " "
                     (List.rev_map string_of_int !ids |> List.rev))
            end;
            finished
      in
      let batch wave =
        match (queries, mix) with
        | q :: _, _ ->
            if wave = 0 then
              List.map (fun q -> (q, sem_of_subject ())) (q :: List.tl queries)
            else []
        | [], Some n ->
            Query_mix.generate ~n ~subjects:mix_subjects
              ~seed:(seed + (1000 * wave))
              ()
            |> List.map (fun e ->
                   (e.Query_mix.xpath, engine_semantics e.Query_mix.semantics))
        | [], None -> []
      in
      let deadline =
        if duration <= 0.0 then 0.0 else Unix.gettimeofday () +. duration
      in
      let rec waves wave =
        match batch wave with
        | [] -> ()
        | entries ->
            if List.for_all run_one entries
               && deadline > 0.0
               && Unix.gettimeofday () < deadline
            then waves (wave + 1)
      in
      waves 0;
      if show_stats && not !aborted then
        List.iter
          (fun (k, v) -> Printf.printf "%s %d\n" k v)
          (Wire_client.stats cl);
      if report then
        Printf.printf "DOLX-DONE served=%d shed=%d answers=%d\n%!" !served
          !shed !answers)

let connect_cmd =
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Server socket to dial.")
  in
  let tenant =
    Arg.(value & opt string "tenant0"
         & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant shard to query.")
  in
  let subject =
    Arg.(value & opt (some int) None
         & info [ "subject" ] ~docv:"BIT"
             ~doc:"Subject bit for positional queries (omit = insecure).")
  in
  let path_sem =
    Arg.(value & flag & info [ "path-semantics" ]
           ~doc:"Use the Gabillon-Bruno semantics for positional queries.")
  in
  let mix =
    Arg.(value & opt (some int) None
         & info [ "mix" ] ~docv:"N"
             ~doc:"Drive $(docv) queries per wave from the benchmark mix.")
  in
  let mix_subjects =
    Arg.(value & opt int 16
         & info [ "subjects" ] ~docv:"N"
             ~doc:"Subject population for $(b,--mix) semantics draws.")
  in
  let seed =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"SEED" ~doc:"Mix PRNG seed.")
  in
  let duration =
    Arg.(value & opt float 0.0
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Repeat $(b,--mix) waves until $(docv) elapse (0 = one \
                   wave).")
  in
  let show_stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print server statistics as $(i,key value) lines after \
                   the queries (or alone, with no queries).")
  in
  let print_ids =
    Arg.(value & flag
         & info [ "print-ids" ] ~doc:"Print each query's answer ids.")
  in
  let abort_after =
    Arg.(value & opt int 0
         & info [ "abort-after" ] ~docv:"K"
             ~doc:"Slam the connection shut after the $(docv)th chunk, \
                   mid-stream (disconnect-handling test aid).")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Print DOLX-LAT per-query latency lines and a final \
                   DOLX-DONE summary.")
  in
  let queries = Arg.(value & pos_all string [] & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Query a serve --socket server over the wire protocol")
    Term.(const connect $ socket $ tenant $ subject $ path_sem $ mix
          $ mix_subjects $ seed $ duration $ show_stats $ print_ids
          $ abort_after $ report $ queries)

(* --- view --- *)

let view doc policy mode subject lift =
  let tree = load_doc doc in
  let subjects, _, labeling = compile tree policy ~mode in
  let s = subject_id subjects subject in
  let dol = Dol.of_labeling labeling in
  let semantics =
    if lift then Secure_view.Lift_children else Secure_view.Prune_subtree
  in
  match Secure_view.view ~semantics tree dol ~subject:s with
  | v -> print_endline (Serializer.to_string ~indent:true v)
  | exception Secure_view.Root_inaccessible ->
      prerr_endline "subject cannot see the document root";
      exit 1

let view_cmd =
  let lift =
    Arg.(value & flag & info [ "lift" ]
           ~doc:"Keep accessible descendants of hidden nodes (Cho-style view).")
  in
  Cmd.v (Cmd.info "view" ~doc:"Export a subject's secured view")
    Term.(const view $ doc_arg $ policy_arg $ mode_arg $ subject_arg $ lift)

(* --- filter: stream a document through the secure filter --- *)

let filter doc policy mode subject lift output =
  let tree = load_doc doc in
  let subjects, _, labeling = compile tree policy ~mode in
  let s = subject_id subjects subject in
  let dol = Dol.of_labeling labeling in
  let semantics =
    if lift then Dolx_core.Stream_filter.Lift_children
    else Dolx_core.Stream_filter.Prune_subtree
  in
  let out =
    Dolx_core.Stream_filter.filter_string ~semantics dol ~subject:s (read_file doc)
  in
  match output with
  | Some path -> write_file path out
  | None -> print_endline out

let filter_cmd =
  let lift =
    Arg.(value & flag & info [ "lift" ] ~doc:"Keep accessible descendants of hidden nodes.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "filter" ~doc:"Stream a document through the one-pass secure filter")
    Term.(const filter $ doc_arg $ policy_arg $ mode_arg $ subject_arg $ lift $ output)

(* --- save-dol / inspect-dol: persistence --- *)

let save_dol doc policy mode output =
  let tree = load_doc doc in
  let _, _, labeling = compile tree policy ~mode in
  let dol = Dol.of_labeling labeling in
  Dolx_core.Persist.save output dol;
  Printf.eprintf "wrote %s: %d transitions, %d codebook entries, %d bytes\n" output
    (Dol.transition_count dol)
    (Codebook.count (Dol.codebook dol))
    (Dolx_core.Persist.serialized_bytes dol)

let save_dol_cmd =
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "save-dol" ~doc:"Compile a policy and persist the DOL to a file")
    Term.(const save_dol $ doc_arg $ policy_arg $ mode_arg $ output)

let inspect_dol path =
  let dol = Dolx_core.Persist.load path in
  Fmt.pr "%a@." Dol.pp dol;
  Printf.printf "codebook: %d entries over %d subjects; density %.4f\n"
    (Codebook.count (Dol.codebook dol))
    (Codebook.width (Dol.codebook dol))
    (Dol.transition_density dol)

let inspect_dol_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "inspect-dol" ~doc:"Print statistics of a persisted DOL")
    Term.(const inspect_dol $ path)

(* --- explain --- *)

let explain doc q =
  let tree = load_doc doc in
  let dol = Dol.of_bool_array (Array.make (Tree.size tree) true) in
  let store = Store.create tree dol in
  let index = Tag_index.build tree in
  print_endline (Engine.explain store index (Dolx_nok.Xpath.parse q))

let explain_cmd =
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the NoK decomposition and join plan for a query")
    Term.(const explain $ doc_arg $ q)

(* --- compile-db / query-db: the single-file database format --- *)

let compile_db doc policy mode output =
  let tree = load_doc doc in
  let subjects, modes, labeling = compile tree policy ~mode in
  let dol = Dol.of_labeling labeling in
  let store = Store.create tree dol in
  Dolx_core.Db_file.save ~subjects ~modes output store;
  Printf.eprintf "wrote %s: %d nodes, %d pages, %d codebook entries\n" output
    (Tree.size tree)
    (Dolx_storage.Nok_layout.page_count (Store.layout store))
    (Codebook.count (Dol.codebook dol))

let compile_db_cmd =
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "compile-db"
       ~doc:"Compile document + policy into a single-file secured database")
    Term.(const compile_db $ doc_arg $ policy_arg $ mode_arg $ output)

let query_db db subject path_semantics no_run_index no_summary metrics q =
  let store, registries = Dolx_core.Db_file.load db in
  if no_run_index then Store.set_run_index store false;
  if no_summary then Store.set_summary store false;
  let tree = Store.tree store in
  let index = Tag_index.build tree in
  (* subject by name when the file embeds its registry, else a bit index *)
  let bit =
    match int_of_string_opt subject with
    | Some i -> i
    | None -> (
        match registries with
        | Some (subjects, _) -> subject_id subjects subject
        | None -> failwith "database file has no subject registry; use a bit index")
  in
  let sem = if path_semantics then Engine.Secure_path bit else Engine.Secure bit in
  metrics_begin metrics store;
  let n = print_stream tree store index q sem in
  Printf.eprintf "%d answers\n" n;
  metrics_end metrics

let query_db_cmd =
  let db = Arg.(required & opt (some file) None & info [ "db" ] ~docv:"FILE") in
  let subject_bit =
    Arg.(required & opt (some string) None
         & info [ "s"; "subject" ] ~docv:"NAME|BIT"
             ~doc:"Subject name (when the file embeds its registry) or bit index.")
  in
  let path_sem = Arg.(value & flag & info [ "path-semantics" ]) in
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "query-db" ~doc:"Evaluate a twig query against a compiled database file")
    Term.(const query_db $ db $ subject_bit $ path_sem $ no_run_index_arg
          $ no_summary_arg $ metrics_arg $ q)

(* --- stats-db: database-file statistics --- *)

let stats_db db =
  let store, registries = Dolx_core.Db_file.load db in
  let tree = Store.tree store in
  let dol = Store.dol store in
  let layout = Store.layout store in
  let file_bytes = (Unix.stat db).Unix.st_size in
  Printf.printf "file: %s (%d bytes)\n" db file_bytes;
  Printf.printf "nodes: %d\n" (Tree.size tree);
  Printf.printf "pages: %d x %d bytes\n"
    (Dolx_storage.Nok_layout.page_count layout)
    (Dolx_storage.Disk.page_size (Store.disk store));
  Printf.printf "codebook: %d entries over %d subjects (%d bytes)\n"
    (Codebook.count (Dol.codebook dol))
    (Codebook.width (Dol.codebook dol))
    (Dol.codebook_bytes dol);
  let gauge name = int_of_float (Metrics.gauge_value (Metrics.gauge name)) in
  Printf.printf "  resident: %d bytes, %d indexed entries\n"
    (gauge "codebook.resident_bytes")
    (gauge "codebook.indexed_entries");
  Printf.printf "transitions: %d (density %.4f); embedded codes: %d bytes\n"
    (Dol.transition_count dol)
    (Dol.transition_density dol)
    (Dol.embedded_bytes dol);
  let module Path_summary = Dolx_index.Path_summary in
  let ps = Store.path_summary store in
  let st = Tree_stats.compute tree in
  Printf.printf
    "path summary: %d classes (%d leaf paths), %d bytes; document: %d \
     distinct paths, %d leaf paths\n"
    (Path_summary.node_count ps)
    (Path_summary.leaf_path_count ps)
    (Path_summary.bytes ps) st.Tree_stats.distinct_paths
    st.Tree_stats.distinct_leaf_paths;
  (match registries with
  | Some (subjects, modes) ->
      let names n get count =
        String.concat ", " (List.init (count n) (fun i -> get n i))
      in
      Printf.printf "subjects: %s\n" (names subjects Subject.name Subject.count);
      Printf.printf "modes: %s\n" (names modes Mode.name Mode.count)
  | None -> print_endline "no embedded subject/mode registry");
  (match Store.quarantined store with
  | [] -> ()
  | qs ->
      Printf.printf "quarantined ranges (fail-secure): %s\n"
        (String.concat ", "
           (List.map (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi) qs)));
  (* run index: build every subject once so the report shows the full
     per-subject picture; every list stays resident *)
  let ri = Store.run_index store in
  let module Runs = Dolx_core.Access_runs in
  let n_subjects = Codebook.width (Dol.codebook dol) in
  print_endline "run index:";
  for s = 0 to n_subjects - 1 do
    let r = Runs.runs ri ~subject:s in
    Printf.printf
      "  subject %d: %d run(s), %d node(s) accessible (%.1f%%), %d bytes\n" s
      (Runs.run_count r) (Runs.covered r)
      (100. *. Runs.accessible_fraction r)
      (Runs.bytes r)
  done;
  Printf.printf "  resident: %d subject(s), %d bytes total\n"
    (Runs.resident ri) (Runs.total_bytes ri);
  Printf.printf "  counters: builds=%d hits=%d\n"
    (Metrics.counter_value "runs.builds")
    (Metrics.counter_value "runs.hits");
  (* MVCC snapshot state: the epoch clock, pinned readers, and page
     versions retained for them; plus the group-commit counters *)
  let disk = Store.disk store in
  let ep = Dolx_storage.Disk.epoch disk in
  Printf.printf "mvcc: epoch %d, %d pinned reader(s), %d retained page version(s)\n"
    (Dolx_storage.Epoch.current ep)
    (Dolx_storage.Epoch.pin_count ep)
    (Dolx_storage.Disk.live_versions disk);
  Printf.printf "  counters: epoch.advances=%d versions_saved=%d versions_retired=%d\n"
    (Metrics.counter_value "epoch.advances")
    (Metrics.counter_value "disk.versions_saved")
    (Metrics.counter_value "disk.versions_retired");
  Printf.printf "group commit: batches=%d records=%d flushes=%d\n"
    (Metrics.counter_value "commit.batches")
    (Metrics.counter_value "commit.records")
    (Metrics.counter_value "commit.flushes");
  (* per-plan-strategy breakdown: which candidate access paths the
     engine chose this process (nonzero after --metrics query runs) *)
  Printf.printf "plans: joins=%d summary_prune=%d summary_path=%d\n"
    (Metrics.counter_value "engine.joins")
    (Metrics.counter_value "engine.plan_summary_prune")
    (Metrics.counter_value "engine.plan_summary_path");
  Printf.printf "  pruned: run_index=%d summary=%d\n"
    (Metrics.counter_value "engine.candidates_pruned")
    (Metrics.counter_value "engine.summary_pruned")

let stats_db_cmd =
  let db = Arg.(required & opt (some file) None & info [ "db" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "stats-db" ~doc:"Print statistics of a compiled database file")
    Term.(const stats_db $ db)

let main_cmd =
  Cmd.group
    (Cmd.info "dolx" ~version:"1.0.0"
       ~doc:"Compact access-control labeling for secure XML query evaluation")
    [
      generate_cmd; stats_cmd; label_cmd; query_cmd; query_batch_cmd; serve_cmd;
      connect_cmd;
      view_cmd;
      filter_cmd;
      save_dol_cmd; inspect_dol_cmd; compile_db_cmd; query_db_cmd;
      stats_db_cmd; explain_cmd;
    ]

(* Typed input errors exit 2 with one line on stderr; anything else is
   an internal error, reported as cmdliner would (exit 125). *)
let () =
  exit
    (match Cmd.eval ~catch:false main_cmd with
    | code -> code
    | exception Unknown_subject name ->
        Printf.eprintf "dolx: subject %S not declared in policy\n" name;
        2
    | exception Dolx_nok.Xpath.Parse_error { position; message } ->
        Printf.eprintf "dolx: malformed query at position %d: %s\n" position
          message;
        2
    | exception Unknown_mode name ->
        Printf.eprintf "dolx: mode %S not declared in policy\n" name;
        2
    | exception Dolx_core.Db_file.Corrupt m ->
        Printf.eprintf "dolx: corrupt database file: %s\n" m;
        2
    | exception Dolx_core.Persist.Corrupt m ->
        Printf.eprintf "dolx: corrupt DOL file: %s\n" m;
        2
    | exception Bad_input m ->
        Printf.eprintf "dolx: %s\n" m;
        2
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "dolx: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string e);
        Printexc.print_raw_backtrace stderr bt;
        Cmd.Exit.internal_error)
