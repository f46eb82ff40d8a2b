(** The harness: set-up, the closed-loop wire client, the traced replay
    and answer verification.  README.md gives the topology and defines
    every metric. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Serve = Dolx_serve.Serve
module Server = Dolx_wire.Server
module Client = Dolx_wire.Client
module Metrics = Dolx_obs.Metrics
module Disk = Dolx_storage.Disk

let now = Unix.gettimeofday

(* Topology: one Serve worker domain, plus the main domain running the
   wire server's threads and the one closed-loop client. *)
let workers = 1

let domains = 1 + workers

let chunk = 64

let buffer_chunks = 4

let page_size = 1024

let pool_capacity = 64

let setup_reps = 5

let tenant = "bench"

(** Cores this process may use. *)
let nproc () = Domain.recommended_domain_count ()

(** {1 Set-up} *)

type service = {
  store : Store.t;
  index : Tag_index.t;
  srv : Serve.t;
  server : Server.t;
  client : Client.t;
}

(* Seconds spent in each set-up step. *)
type setup_times = {
  dol_s : float;
  store_s : float;
  index_s : float;
  serve_s : float;
  wire_s : float;
}

let setup_total s = s.dol_s +. s.store_s +. s.index_s +. s.serve_s +. s.wire_s

let start_wire srv ~socket =
  let server = Server.start srv ~path:socket ~name:"perfbench" in
  match Client.connect socket with
  | client -> (server, client)
  | exception e ->
      Server.stop server;
      raise e

(** From the generated tree and labeling to a connected client. *)
let setup tree labeling ~socket =
  let t0 = now () in
  let dol = Dol.of_labeling labeling in
  let t1 = now () in
  let store = Store.create ~page_size ~pool_capacity tree dol in
  let t2 = now () in
  let index = Tag_index.build tree in
  let t3 = now () in
  let srv = Serve.create ~jobs:workers ~chunk ~buffer_chunks () in
  let t4, server, client =
    try
      Serve.add_tenant srv tenant (Serve.Mem (store, index));
      let t4 = now () in
      let server, client = start_wire srv ~socket in
      (t4, server, client)
    with e ->
      Serve.shutdown srv;
      raise e
  in
  let t5 = now () in
  ( { store; index; srv; server; client },
    { dol_s = t1 -. t0; store_s = t2 -. t1; index_s = t3 -. t2;
      serve_s = t4 -. t3; wire_s = t5 -. t4 } )

(* Poll [f] until it reads 0, for at most about 5 s; the last reading. *)
let settle f =
  let rec go tries =
    let v = f () in
    if v = 0 || tries = 0 then v
    else begin
      Unix.sleepf 0.01;
      go (tries - 1)
    end
  in
  go 500

(** Close the client and let its session end, then stop the wire server
    before the service (a session awaiting a chunk needs live workers).
    Returns the reader pins plus sessions still live once the client
    has gone. *)
let teardown svc =
  Client.close svc.client;
  let sessions = settle (fun () -> Server.sessions svc.server) in
  let pins = settle (fun () -> Serve.pinned_readers svc.srv) in
  Server.stop svc.server;
  Serve.shutdown svc.srv;
  pins + sessions

(** {1 Requests} *)

(* Order-sensitive digest of an answer sequence; chunking is irrelevant. *)
let digest chunks =
  List.fold_left
    (List.fold_left (fun h x -> (h lxor x) * 0x100000001b3 land max_int))
    0x2545f4914f6cdd1d chunks

(* The chunks of a stream whose first chunk is [first]. *)
let drain next first =
  let rec go acc = match next () with [] -> List.rev acc | c -> go (c :: acc) in
  if first = [] then [] else go [ first ]

type reply = { lat : float; ttfc : float; chunks : int; hash : int }

(** One query through the socket: submit, then [Next] until [End]. *)
let wire_query client ~xpath ~semantics =
  let t0 = now () in
  let st = Client.submit client ~tenant xpath semantics in
  let first = Client.next_chunk st in
  let t1 = now () in
  let chunks = drain (fun () -> Client.next_chunk st) first in
  let t2 = now () in
  { lat = t2 -. t0; ttfc = t1 -. t0; chunks = List.length chunks; hash = digest chunks }

let set_subtree store ~subject ~root ~grant =
  Update.set_subtree_accessibility store ~subject ~grant root

(** What a pass over an operation sequence saw, per operation. *)
type record = {
  lat : float array;  (** seconds: submit to [End], or the update call *)
  ttfc : float array;  (** seconds: submit to the first chunk *)
  chunks : int array;
  hash : int array;  (** answer digest *)
  ok : bool array;
  cal : float array;  (** seconds: the host-speed kernel after the operation *)
  mutable completed : int;  (** operations attempted, a prefix *)
  mutable failed : int;  (** shed or failed server-side *)
  mutable elapsed : float;
}

let new_record n =
  {
    lat = Array.make n 0.0; ttfc = Array.make n 0.0; chunks = Array.make n 0;
    hash = Array.make n 0; ok = Array.make n false; cal = Array.make n 0.0; completed = 0; failed = 0;
    elapsed = 0.0;
  }

(* [a] then [b], as one record over the concatenated sequence; [a] must
   have run to its end. *)
let append a b =
  {
    lat = Array.append a.lat b.lat; ttfc = Array.append a.ttfc b.ttfc;
    chunks = Array.append a.chunks b.chunks; hash = Array.append a.hash b.hash;
    ok = Array.append a.ok b.ok; cal = Array.append a.cal b.cal; completed = a.completed + b.completed;
    failed = a.failed + b.failed; elapsed = a.elapsed +. b.elapsed;
  }

(** Run [ops] in order, each only after the previous one has fully
    drained and the host-speed kernel has run once, until [stop] holds
    before an operation.  [update] applies an update operation. *)
let pass ?(update = set_subtree) svc ops ~stop =
  let n = Array.length ops in
  let r = new_record n in
  let t0 = now () in
  let i = ref 0 in
  while !i < n && not (stop ()) do
    (match ops.(!i) with
    | Gen.Query { q; semantics } -> (
        match wire_query svc.client ~xpath:(Gen.xpath q) ~semantics with
        | rep ->
            r.lat.(!i) <- rep.lat;
            r.ttfc.(!i) <- rep.ttfc;
            r.chunks.(!i) <- rep.chunks;
            r.hash.(!i) <- rep.hash;
            r.ok.(!i) <- true
        | exception (Serve.Overloaded | Client.Server_error _) ->
            r.failed <- r.failed + 1)
    | Gen.Update { subject; root; grant } ->
        let t = now () in
        update svc.store ~subject ~root ~grant;
        r.lat.(!i) <- now () -. t;
        r.ok.(!i) <- true);
    r.cal.(!i) <- Calib.run ();
    incr i
  done;
  r.completed <- !i;
  r.elapsed <- now () -. t0;
  r

(* Samples of the completed operations [pick] selects. *)
let samples ops r pick =
  let acc = ref [] in
  for i = r.completed - 1 downto 0 do
    if r.ok.(i) then match pick ops.(i) i with Some x -> acc := x :: !acc | None -> ()
  done;
  Array.of_list !acc

let query_samples ops r f =
  samples ops r (fun op i -> match op with Gen.Query _ -> Some (f i) | Gen.Update _ -> None)

let update_samples ops r =
  samples ops r (fun op i -> match op with Gen.Update _ -> Some r.lat.(i) | Gen.Query _ -> None)

(* Operations on either side of a request whose kernel times give the
   host speed it ran at. *)
let host_window = 25

(** Per operation, the factor that takes its times to the reference host
    speed: {!Calib.reference} over the median kernel time around it. *)
let host_scale r =
  Array.map
    (fun c -> Calib.reference /. c)
    (Calib.local (Array.sub r.cal 0 r.completed) host_window)

(** The update that restores the flip the first [n] operations leave
    outstanding, if any. *)
let outstanding ops n =
  let last = ref None in
  for i = 0 to n - 1 do
    match (ops.(i), !last) with
    | Gen.Update { subject; root; grant }, None -> last := Some (subject, root, not grant)
    | Gen.Update _, Some _ -> last := None
    | Gen.Query _, _ -> ()
  done;
  !last

let restore store ops n =
  Option.iter
    (fun (subject, root, grant) -> set_subtree store ~subject ~root ~grant)
    (outstanding ops n)

(** {1 Verification} *)

(* The reference answer: materialized evaluation on a fresh reader with
   the run index off, so it shares no cache that an update has to
   invalidate with the served path.  Access checks read the DOL codes
   the update rewrote into the pages. *)
let reference svc ~xpath ~semantics =
  Store.with_reader svc.store (fun r ->
      Store.set_run_index r false;
      digest [ (Engine.query r svc.index xpath semantics).Engine.answers ])

(** Check every completed query against the reference at the policy
    state it was served under, replaying the updates in order.  The
    store must be at its base state; it is left there.  Returns the
    number of mismatches. *)
let verify svc ops r =
  let memo = Hashtbl.create 256 in
  let expected ~flipped q semantics =
    let xpath = Gen.xpath q in
    if flipped then reference svc ~xpath ~semantics
    else
      match Hashtbl.find_opt memo (q, semantics) with
      | Some d -> d
      | None ->
          let d = reference svc ~xpath ~semantics in
          Hashtbl.add memo (q, semantics) d;
          d
  in
  let flipped = ref false and bad = ref 0 in
  for i = 0 to r.completed - 1 do
    match ops.(i) with
    | Gen.Update { subject; root; grant } ->
        set_subtree svc.store ~subject ~root ~grant;
        flipped := not !flipped
    | Gen.Query { q; semantics } ->
        if r.ok.(i) && r.hash.(i) <> expected ~flipped:!flipped q semantics then
          incr bad
  done;
  restore svc.store ops r.completed;
  !bad

(** {1 Counts} *)

let counter_names =
  [| "runs.builds"; "runs.hits"; "store.access_checks"; "store.codebook_lookups";
     "store.run_answers"; "pool.touches"; "pool.hits"; "pool.misses"; "disk.reads";
     "engine.joins"; "engine.candidates_scanned"; "engine.answers";
     "engine.plan_summary_path"; "engine.candidates_pruned" |]

let counters () = Array.map (fun name -> Metrics.counter_value name) counter_names

let delta before after = Array.map2 ( - ) after before

let count c name =
  let rec find i = if counter_names.(i) = name then c.(i) else find (i + 1) in
  find 0

(* What updates cost: transitions moved, page versions kept, and the
   counter increments to keep out of the per-query counts. *)
type update_cost = {
  mutable updates : int;
  mutable transitions : int;
  mutable versions : int;
  mutable spent : int array;
}

let update_cost () =
  { updates = 0; transitions = 0; versions = 0;
    spent = Array.make (Array.length counter_names) 0 }

let counted_update acc store ~subject ~root ~grant =
  let transitions () = Dol.transition_count (Store.dol store) in
  let versions () = (Disk.stats (Store.disk store)).Disk.versions_saved in
  let c0 = counters () and t0 = transitions () and v0 = versions () in
  set_subtree store ~subject ~root ~grant;
  acc.updates <- acc.updates + 1;
  acc.transitions <- acc.transitions + abs (transitions () - t0);
  acc.versions <- acc.versions + (versions () - v0);
  acc.spent <- Array.map2 ( + ) acc.spent (delta c0 (counters ()))

(** {1 Traced replay} *)

type direct = { reader_s : float; stage_s : float; drain_s : float; direct_hash : int }

(* The request in-process, without Serve: reader, stage, drain, release. *)
let engine_replay svc ~xpath ~semantics =
  let t0 = now () in
  let r = Store.reader svc.store in
  let t1 = now () in
  match
    let st = Engine.stream ~chunk r svc.index (Xpath.parse xpath) semantics in
    let t2 = now () in
    let chunks = drain (fun () -> Engine.stream_next st) (Engine.stream_next st) in
    (t2, now (), chunks)
  with
  | t2, t3, chunks ->
      Store.release r;
      let t4 = now () in
      { reader_s = t1 -. t0 +. (t4 -. t3); stage_s = t2 -. t1; drain_s = t3 -. t2;
        direct_hash = digest chunks }
  | exception e ->
      Store.release r;
      raise e

(* One traced request, outermost first.  The first wire call is the
   request itself, cold as in an untraced pass; the replays after it
   are warm, and are compared with a second, warm wire call. *)
type traced = {
  cold : reply;
  warm : reply;
  serve_s : float;
  serve_ttfc_s : float;
  direct : direct;
  summary_s : float;
  insecure : direct;
  agree : bool;
}

let trace_query svc ~xpath ~semantics =
  let cold = wire_query svc.client ~xpath ~semantics in
  let warm = wire_query svc.client ~xpath ~semantics in
  let s0 = now () in
  let tk = Serve.submit svc.srv ~tenant xpath semantics in
  let first = Serve.next_chunk tk in
  let s1 = now () in
  let served = drain (fun () -> Serve.next_chunk tk) first in
  let s2 = now () in
  let direct = engine_replay svc ~xpath ~semantics in
  let pattern = Xpath.parse xpath in
  let summary_s =
    Store.with_reader svc.store (fun r ->
        let t = now () in
        ignore (Engine.summary_analysis r pattern semantics);
        now () -. t)
  in
  let insecure = engine_replay svc ~xpath ~semantics:Engine.Insecure in
  {
    cold; warm; serve_s = s2 -. s0; serve_ttfc_s = s1 -. s0; direct; summary_s; insecure;
    agree =
      warm.hash = cold.hash && digest served = cold.hash
      && direct.direct_hash = cold.hash;
  }

(** {!pass} with every query traced; the record holds the cold calls.
    Also returns the spans and the number of replays whose answers
    differed from the request's own. *)
let traced_pass svc ops =
  let r = new_record (Array.length ops) in
  let spans = ref [] and disagree = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i op ->
      match op with
      | Gen.Update { subject; root; grant } ->
          set_subtree svc.store ~subject ~root ~grant;
          r.ok.(i) <- true
      | Gen.Query { q; semantics } -> (
          match trace_query svc ~xpath:(Gen.xpath q) ~semantics with
          | t ->
              spans := t :: !spans;
              r.lat.(i) <- t.cold.lat;
              r.ttfc.(i) <- t.cold.ttfc;
              r.chunks.(i) <- t.cold.chunks;
              r.hash.(i) <- t.cold.hash;
              r.ok.(i) <- true;
              if not t.agree then incr disagree
          | exception (Serve.Overloaded | Client.Server_error _) ->
              r.failed <- r.failed + 1))
    ops;
  r.completed <- Array.length ops;
  r.elapsed <- now () -. t0;
  (r, Array.of_list (List.rev !spans), !disagree)

(** {1 Results} *)

type metric = { name : string; value : float; units : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  report : string list;  (** human-readable lines, in order *)
}

type params = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  trace : bool;
  scale : Gen.scale;
  socket : string;
}

(* Operations generated for the untraced window: far above any rate it
   reaches, so the window, not the sequence, ends the pass. *)
let max_rate = 2000.0

(* Traced-pass operations per second of [--seconds]: a count fixed by
   the arguments, so the pass's counters repeat exactly for a seed. *)
let trace_rate = function Gen.Paths -> 20.0 | Gen.Twigs -> 6.0 | Gen.Churn -> 12.0

let probe_pairs = 200

let ms s = s *. 1000.0

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let pct a p = if Array.length a = 0 then 0.0 else Pct.percentile a p

let p50 a = pct a 50.0

let cdf_line name a =
  let s = Pct.sorted a in
  if Array.length s = 0 then name ^ " cdf: no samples"
  else
    String.concat " "
      (Printf.sprintf "%s cdf ms (%d samples):" name (Array.length s)
      :: List.init 19 (fun k ->
             let p = float_of_int (5 * (k + 1)) in
             Printf.sprintf "p%g=%.3f" p (ms (Pct.at s p))))

(** Run one workload as [p] asks.  @raise Failure when the topology
    needs more domains than there are cores. *)
let run p =
  let cores = nproc () in
  if domains > cores then
    failwith
      (Printf.sprintf "refusing to run: %d domains on %d cores" domains cores);
  let report = ref [] in
  let say fmt = Printf.ksprintf (fun s -> report := s :: !report) fmt in
  let w = p.workload in
  say "perfbench %s seed %d: ocaml %s, nproc %d, domains %d (%d serve worker; \
       main runs the wire server threads and 1 closed-loop client)"
    (Gen.workload_name w) p.seed Sys.ocaml_version cores domains workers;
  (* generation: outside every timed window *)
  let t_gen = now () in
  let inp = Gen.inputs p.scale in
  let n_trace = max 16 (int_of_float (p.seconds *. trace_rate w)) in
  let n_main =
    if p.trace then 2 * n_trace else int_of_float (p.seconds *. max_rate) + 1
  in
  let warm = Gen.ops inp w ~seed:p.seed ~part:Warmup ~n:(Gen.warmup_len w) in
  let ops = Gen.ops inp w ~seed:p.seed ~part:Main ~n:n_main in
  let probe = Gen.probe inp w ~seed:p.seed ~pairs:probe_pairs in
  let tree = inp.Gen.tree in
  let n = Tree.size tree in
  say "document %d nodes, %d subjects (%d hot), page %d B, pool %d frames, \
       chunk %d; generated in %.2f s"
    n p.scale.Gen.subjects p.scale.Gen.hot page_size pool_capacity chunk
    (now () -. t_gen);
  (* set-up, [setup_reps] times; the last one serves.  The host-speed
     kernel runs right before and after each. *)
  let labeling = ref (Some inp.Gen.labeling) in
  let times = ref [] and hosts = ref [] and leaked = ref 0 and svc = ref None in
  let host_kernels () = Array.init 32 (fun _ -> Calib.run ()) in
  for k = 1 to setup_reps do
    Gc.compact ();
    let before = host_kernels () in
    let s, t = setup tree (Option.get !labeling) ~socket:p.socket in
    hosts := Pct.median (Array.append before (host_kernels ())) :: !hosts;
    times := t :: !times;
    if k < setup_reps then leaked := !leaked + teardown s else svc := Some s
  done;
  labeling := None;
  let svc = Option.get !svc in
  let times = Array.of_list !times and hosts = Array.of_list !hosts in
  let setup_p50 f = Pct.median (Array.map f times) in
  Array.iteri
    (fun k t ->
      say "setup %.3f s: dol %.3f, store %.3f, tag index %.3f, serve %.4f, wire %.4f; \
           kernel %.1f us"
        (setup_total t) t.dol_s t.store_s t.index_s t.serve_s t.wire_s (1e6 *. hosts.(k)))
    times;
  let setup_scaled =
    Pct.median (Array.mapi (fun k t -> setup_total t *. Calib.reference /. hosts.(k)) times)
  in
  let body () =
    let wr = pass svc warm ~stop:(fun () -> false) in
    restore svc.store warm wr.completed;
    Gc.compact ();
    let metric name value units = { name; value; units } in
    if not p.trace then begin
      let deadline = now () +. p.seconds in
      let r = pass svc ops ~stop:(fun () -> now () >= deadline) in
      let pins = Serve.pinned_readers svc.srv in
      let dol = Store.dol svc.store in
      let label_bytes = per (Dol.storage_bytes dol) n in
      Gc.full_major ();
      let live_mb =
        float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
      in
      restore svc.store ops r.completed;
      let mismatches = verify svc ops r in
      let lat = query_samples ops r (fun i -> r.lat.(i)) in
      let ttfc = query_samples ops r (fun i -> r.ttfc.(i)) in
      let scale = host_scale r in
      let lat_s = query_samples ops r (fun i -> r.lat.(i) *. scale.(i)) in
      let ttfc_s = query_samples ops r (fun i -> r.ttfc.(i) *. scale.(i)) in
      let busy a = Array.fold_left ( +. ) 0.0 a in
      say "%s" (cdf_line "query" lat);
      say "as measured: %.2f queries/s of request time (%.2f of window), p50 %.3f ms, \
           p95 %.3f ms, ttfc p50 %.3f ms; kernel p50 %.1f us (reference %.1f us)"
        (float_of_int (Array.length lat) /. busy lat)
        (float_of_int (Array.length lat) /. r.elapsed)
        (ms (p50 lat)) (ms (pct lat 95.0)) (ms (p50 ttfc))
        (1e6 *. p50 (Array.sub r.cal 0 r.completed)) (1e6 *. Calib.reference);
      let window_updates = update_samples ops r in
      say "window %.3f s: %d operations, %d queries, %d updates (p50 %.3f ms)%s"
        r.elapsed r.completed (Array.length lat) (Array.length window_updates)
        (ms (p50 window_updates))
        (if r.completed = Array.length ops then " (sequence exhausted)" else "");
      let failed = wr.failed + r.failed + mismatches + pins in
      say "failures: %d shed or server errors, %d answer mismatches, %d pins \
           live after the window"
        (wr.failed + r.failed) mismatches pins;
      ( r.completed,
        failed,
        [
          metric "setup_s" setup_scaled "s";
          metric "qps" (float_of_int (Array.length lat_s) /. busy lat_s) "1/s";
          metric "query_p50_ms" (ms (p50 lat_s)) "ms";
          metric "query_p95_ms" (ms (pct lat_s 95.0)) "ms";
          metric "ttfc_p50_ms" (ms (p50 ttfc_s)) "ms";
          metric "label_bytes_per_node" label_bytes "B/node";
          metric "live_mb" live_mb "MB";
        ] )
    end
    else begin
      (* Pass A runs the first [n_trace] requests untraced and counts
         them; pass B traces the next [n_trace].  One sequence, so
         neither pass runs on caches the other warmed for it. *)
      let ops_a = Array.sub ops 0 n_trace in
      let ops_b = Array.sub ops n_trace (Array.length ops - n_trace) in
      let cost = update_cost () in
      let c0 = counters () in
      let a = pass ~update:(counted_update cost) svc ops_a ~stop:(fun () -> false) in
      let c = Array.map2 ( - ) (delta c0 (counters ())) cost.spent in
      let b, spans, disagree = traced_pass svc ops_b in
      let span f = Array.map f spans in
      let pins = Serve.pinned_readers svc.srv in
      let dol = Store.dol svc.store in
      let live_versions = Disk.live_versions (Store.disk svc.store) in
      restore svc.store ops (Array.length ops);
      let mismatches = verify svc ops (append a b) + disagree in
      let probe_cost = update_cost () in
      let pr = pass ~update:(counted_update probe_cost) svc probe ~stop:(fun () -> false) in
      let lat = query_samples ops_a a (fun i -> a.lat.(i)) in
      let nq = Array.length lat in
      let chunks = Array.fold_left ( + ) 0 (query_samples ops_a a (fun i -> a.chunks.(i))) in
      let direct f = span (fun t -> ms (f t.direct)) in
      let overhead =
        span (fun t ->
            (t.direct.stage_s +. t.direct.drain_s) /. (t.insecure.stage_s +. t.insecure.drain_s))
      in
      say "%s" (cdf_line "query" lat);
      say "pass A: %d queries untraced in %.3f s; pass B: %d traced in %.3f s" nq
        a.elapsed (Array.length spans) b.elapsed;
      let failed = wr.failed + a.failed + b.failed + mismatches + pins in
      say "failures: %d shed or server errors, %d answer mismatches, %d pins \
           live after the passes"
        (wr.failed + a.failed + b.failed) mismatches pins;
      let pq name = per (count c name) nq in
      let hits = count c "pool.hits" and misses = count c "pool.misses" in
      let builds = count c "runs.builds" in
      ( a.completed + b.completed,
        failed,
        [
          metric "wire.self_ms.p50" (p50 (span (fun t -> ms (t.warm.lat -. t.serve_s)))) "ms";
          metric "wire.chunks_per_query" (per chunks nq) "count";
          metric "wire.setup_s" (setup_p50 (fun t -> t.wire_s)) "s";
          metric "serve.self_ms.p50"
            (p50
               (span (fun t ->
                    ms (t.serve_s -. t.direct.reader_s -. t.direct.stage_s -. t.direct.drain_s))))
            "ms";
          metric "serve.ttfc_ms.p50" (p50 (span (fun t -> ms t.serve_ttfc_s))) "ms";
          metric "serve.setup_s" (setup_p50 (fun t -> t.serve_s)) "s";
          metric "nok.stage_ms.p50" (p50 (direct (fun d -> d.stage_s))) "ms";
          metric "nok.drain_ms.p50" (p50 (direct (fun d -> d.drain_s))) "ms";
          metric "nok.summary_ms.p50" (p50 (span (fun t -> ms t.summary_s))) "ms";
          metric "nok.scanned_per_answer"
            (per (count c "engine.candidates_scanned") (count c "engine.answers"))
            "ratio";
          metric "nok.joins_per_query" (pq "engine.joins") "count";
          metric "nok.plan_summary_path" (pq "engine.plan_summary_path") "ratio";
          metric "nok.candidates_pruned" (pq "engine.candidates_pruned") "count";
          metric "nok.secure_overhead" (p50 overhead) "ratio";
          metric "core.reader_ms.p50" (p50 (direct (fun d -> d.reader_s))) "ms";
          metric "core.cold_ms.p50" (p50 (span (fun t -> ms (t.cold.lat -. t.warm.lat)))) "ms";
          metric "core.runs_build_ratio" (per builds (builds + count c "runs.hits")) "ratio";
          metric "core.runs_builds_per_query" (pq "runs.builds") "count";
          metric "core.access_checks_per_query" (pq "store.access_checks") "count";
          metric "core.run_answers_per_query" (pq "store.run_answers") "count";
          metric "core.codebook_lookups_per_query" (pq "store.codebook_lookups") "count";
          metric "core.update_ms.p50" (ms (p50 (update_samples probe pr))) "ms";
          metric "core.transitions_per_update" (per probe_cost.transitions probe_cost.updates) "count";
          metric "core.codebook_bytes_per_node" (per (Dol.codebook_bytes dol) n) "B/node";
          metric "core.embedded_bytes_per_node" (per (Dol.embedded_bytes dol) n) "B/node";
          metric "core.setup_dol_s" (setup_p50 (fun t -> t.dol_s)) "s";
          metric "storage.page_touches_per_query" (pq "pool.touches") "count";
          metric "storage.pool_hit_ratio" (per hits (hits + misses)) "ratio";
          metric "storage.disk_reads_per_query" (pq "disk.reads") "count";
          metric "storage.versions_saved_per_update" (per probe_cost.versions probe_cost.updates) "count";
          metric "storage.live_versions_end" (float_of_int live_versions) "count";
          metric "storage.setup_store_s" (setup_p50 (fun t -> t.store_s)) "s";
          metric "index.setup_tag_index_s" (setup_p50 (fun t -> t.index_s)) "s";
          metric "trace.overhead_ms.p50"
            (p50 (span (fun t -> ms t.cold.lat)) -. ms (p50 lat))
            "ms";
        ] )
    end
  in
  let attempted, failed, metrics =
    match body () with
    | r -> r
    | exception e ->
        ignore (teardown svc);
        raise e
  in
  let failed = failed + !leaked + teardown svc in
  say "fail_ratio %g (%d of %d operations)" (per failed attempted) failed attempted;
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics;
    report = List.rev !report;
  }
