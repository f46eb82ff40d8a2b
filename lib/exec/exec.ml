(** Multicore query execution over a shared secured store.

    One store, many domains: an {!t} owns a fixed pool of worker domains
    and one {!Secure_store.reader} handle per worker slot.  The handles
    share the immutable evaluation state (document arena, DOL, NoK page
    layout, codebook, tag index) and the simulated disk — which
    serializes physical page I/O internally — while each keeps a private
    buffer pool, scan cursor and statistics, so evaluation never takes a
    lock on the hot path.

    Two parallel shapes are offered:

    - {!run_batch}: inter-query parallelism — independent (pattern,
      semantics) jobs spread over the pool, results in submission order;
    - {!stream} / {!run}: intra-query parallelism — the engine's one
      staged driver with a pooled segment evaluator: per-segment
      candidate roots are partitioned into contiguous document-order
      chunks evaluated concurrently and merged back into one sorted run.

    Both are byte-identical to sequential {!Engine.run} on the same
    inputs: chunks are merged with the same sort-and-dedup the engine
    applies, and results are collected by index, never by completion
    order.  Reader handles are epoch-pinned snapshots taken when the
    executor is created, so concurrent {!Secure_store.with_write}
    windows (updates) may overlap evaluation — the executor keeps
    answering from the state it was created at.  {!shutdown} (or
    {!with_executor}) releases the pins so superseded page versions can
    be retired. *)

module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Tag_index = Dolx_index.Tag_index
module Value_index = Dolx_index.Value_index
module Engine = Dolx_nok.Engine
module Pattern = Dolx_nok.Pattern
module Xpath = Dolx_nok.Xpath

(** {1 Domain pool} *)

(* Tasks receive the worker slot executing them, which indexes the
   reader array; results are written into caller-owned arrays by task
   index, so completion order never shows. *)
type pool = {
  jobs : int;
  mutable domains : unit Domain.t array;
  m : Mutex.t;
  work : Condition.t; (* a task was queued, or [stop] was set *)
  idle : Condition.t; (* [pending] reached zero *)
  queue : (int -> unit) Queue.t;
  mutable pending : int; (* tasks queued or executing *)
  mutable stop : bool;
  mutable error : exn option; (* first task failure of the current batch *)
}

let rec worker_loop pool slot =
  Mutex.lock pool.m;
  let rec next () =
    if pool.stop then Mutex.unlock pool.m
    else
      match Queue.take_opt pool.queue with
      | None ->
          Condition.wait pool.work pool.m;
          next ()
      | Some task ->
          Mutex.unlock pool.m;
          let err = match task slot with () -> None | exception e -> Some e in
          Mutex.lock pool.m;
          (match err with
          | Some e when pool.error = None -> pool.error <- Some e
          | _ -> ());
          pool.pending <- pool.pending - 1;
          if pool.pending = 0 then Condition.broadcast pool.idle;
          next ()
  in
  next ()

and make_pool jobs =
  let pool =
    {
      jobs;
      domains = [||];
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stop = false;
      error = None;
    }
  in
  if jobs > 1 then
    pool.domains <-
      Array.init jobs (fun slot -> Domain.spawn (fun () -> worker_loop pool slot));
  pool

(* Run every task to completion (a barrier).  [jobs = 1] executes inline
   on the calling domain — the pool then has no domains at all, so the
   sequential path is exactly the sequential engine. *)
let run_tasks pool tasks =
  match tasks with
  | [] -> ()
  | tasks when pool.jobs = 1 -> List.iter (fun task -> task 0) tasks
  | tasks ->
      Mutex.lock pool.m;
      pool.error <- None;
      List.iter (fun task -> Queue.add task pool.queue) tasks;
      pool.pending <- pool.pending + List.length tasks;
      Condition.broadcast pool.work;
      while pool.pending > 0 do
        Condition.wait pool.idle pool.m
      done;
      let err = pool.error in
      pool.error <- None;
      Mutex.unlock pool.m;
      (match err with Some e -> raise e | None -> ())

let shutdown_pool pool =
  if Array.length pool.domains > 0 then begin
    Mutex.lock pool.m;
    pool.stop <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.m;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||]
  end

(** {1 Executor} *)

type t = {
  store : Store.t; (* parent handle; shared immutable state lives here *)
  index : Tag_index.t;
  value_index : Value_index.t option;
  options : Engine.options;
  readers : Store.t array; (* one per worker slot *)
  pool : pool;
}

let create ?(options = Engine.default_options) ?value_index ?pool_capacity
    ?(jobs = 1) store index =
  if jobs < 1 then invalid_arg "Exec.create: jobs must be >= 1";
  {
    store;
    index;
    value_index;
    options;
    readers = Array.init jobs (fun _ -> Store.reader ?pool_capacity store);
    pool = make_pool jobs;
  }

let jobs t = t.pool.jobs

let readers t = Array.to_list t.readers

(* Idempotent: joins the worker domains, then releases every reader's
   epoch pin (itself idempotent) so page versions can be retired.  Safe
   to call from a [Fun.protect] finalizer after a mid-query exception —
   workers drain to the stop flag and join rather than leak. *)
let shutdown t =
  shutdown_pool t.pool;
  Mutex.lock t.pool.m;
  t.pool.stop <- true;
  Mutex.unlock t.pool.m;
  Array.iter Store.release t.readers

let is_shutdown t =
  Mutex.lock t.pool.m;
  let s = t.pool.stop in
  Mutex.unlock t.pool.m;
  s

(** Worker domains still alive (0 after {!shutdown} — teardown
    regression tests assert on this). *)
let live_domains t = Array.length t.pool.domains

let with_executor ?options ?value_index ?pool_capacity ?jobs store index f =
  let t = create ?options ?value_index ?pool_capacity ?jobs store index in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(** {1 Inter-query parallelism} *)

let run_batch t queries =
  let items = Array.of_list queries in
  let n = Array.length items in
  let results = Array.make n None in
  let tasks =
    List.init n (fun i slot ->
        let pattern, semantics = items.(i) in
        results.(i) <-
          Some
            (Engine.run ~options:t.options ?value_index:t.value_index
               t.readers.(slot) t.index pattern semantics))
  in
  run_tasks t.pool tasks;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> failwith "Exec.run_batch: task did not produce a result")
       results)

let query_batch t queries =
  run_batch t
    (List.map (fun (xpath, semantics) -> (Xpath.parse xpath, semantics)) queries)

(** {1 Intra-query parallelism} *)

(* Chunks smaller than this are not worth a task handoff. *)
let min_chunk = 32

(* Evaluate one segment with its candidate roots split into contiguous
   document-order chunks.  Per-chunk outputs are sorted-deduplicated
   lists; their concatenation re-sorted and deduplicated is exactly what
   the sequential engine computes over the whole root list (expansion is
   per-root, so partitioning the roots partitions the raw expansion).
   Per-chunk scan counts are summed into [scanned] after the barrier, on
   the calling domain. *)
let par_eval_segment t mode seg roots scanned =
  let n_roots = List.length roots in
  if t.pool.jobs = 1 || n_roots < 2 * min_chunk then
    Engine.eval_segment t.readers.(0) t.index mode seg roots scanned
  else begin
    let arr = Array.of_list roots in
    let chunk =
      max min_chunk ((n_roots + (4 * t.pool.jobs) - 1) / (4 * t.pool.jobs))
    in
    let n_chunks = (n_roots + chunk - 1) / chunk in
    let outs = Array.make n_chunks [] in
    let counts = Array.make n_chunks 0 in
    let tasks =
      List.init n_chunks (fun ci slot ->
          let lo = ci * chunk in
          let hi = min n_roots (lo + chunk) in
          let sub = Array.to_list (Array.sub arr lo (hi - lo)) in
          let scanned = ref 0 in
          outs.(ci) <-
            Engine.eval_segment t.readers.(slot) t.index mode seg sub scanned;
          counts.(ci) <- !scanned)
    in
    run_tasks t.pool tasks;
    scanned := Array.fold_left ( + ) !scanned counts;
    List.sort_uniq compare (List.concat (Array.to_list outs))
  end

(* [Engine.stream_with] with the segment evaluation fanned out: staging,
   seeding and joins run on reader 0 (the workers are idle between
   barriers, so the handle is unshared), and the last segment's roots
   are pulled in groups big enough to keep the pool busy. *)
let stream ?chunk t pattern semantics =
  Engine.stream_with ~options:t.options ?value_index:t.value_index ?chunk
    ~eval:(par_eval_segment t)
    ~group:(4 * min_chunk * t.pool.jobs)
    t.readers.(0) t.index pattern semantics

let stream_query ?chunk t xpath semantics =
  stream ?chunk t (Xpath.parse xpath) semantics

let run t pattern semantics = Engine.drain (stream t pattern semantics)

let query t xpath semantics = run t (Xpath.parse xpath) semantics

(** {1 Statistics} *)

(* Pool- and store-level fields are per-reader and sum exactly; the disk
   is shared, so its counters are taken once (each reader's io_stats
   reports the same shared numbers). *)
let aggregate_io t =
  let zero =
    {
      Store.page_touches = 0;
      pool_hits = 0;
      pool_misses = 0;
      disk_reads = 0;
      disk_writes = 0;
      access_checks = 0;
      header_skips = 0;
      codebook_lookups = 0;
      run_answers = 0;
    }
  in
  let tot =
    Array.fold_left
      (fun acc r ->
        let s = Store.io_stats r in
        {
          acc with
          Store.page_touches = acc.Store.page_touches + s.Store.page_touches;
          pool_hits = acc.Store.pool_hits + s.Store.pool_hits;
          pool_misses = acc.Store.pool_misses + s.Store.pool_misses;
          access_checks = acc.Store.access_checks + s.Store.access_checks;
          header_skips = acc.Store.header_skips + s.Store.header_skips;
          codebook_lookups =
            acc.Store.codebook_lookups + s.Store.codebook_lookups;
          run_answers = acc.Store.run_answers + s.Store.run_answers;
        })
      zero t.readers
  in
  let ds = Disk.stats (Store.disk t.store) in
  { tot with Store.disk_reads = ds.Disk.reads; disk_writes = ds.Disk.writes }

let reset_stats t =
  Array.iter Store.reset_stats t.readers;
  Disk.reset_stats (Store.disk t.store)
