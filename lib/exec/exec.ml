(** Multicore query execution over a shared secured store.

    One store, many domains: an {!t} owns a fixed pool of worker domains
    and one {!Secure_store.reader} handle per worker slot.  The handles
    share the immutable evaluation state (document arena, DOL, NoK page
    layout, codebook, tag index) and the simulated disk — which
    serializes physical page I/O internally — while each keeps a private
    buffer pool, scan cursor and statistics, so evaluation never takes a
    lock on the hot path.

    The parallel shape is inter-query: {!run_batch} spreads independent
    (pattern, semantics) jobs over the pool, each evaluated by the
    sequential {!Engine.run} on its slot's reader.  Results are collected
    by index, never by completion order, so a batch is byte-identical to
    running its queries one by one.  Reader handles are epoch-pinned
    snapshots taken when the executor is created, so concurrent
    {!Secure_store.with_write} windows (updates) may overlap evaluation —
    the executor keeps answering from the state it was created at.
    {!shutdown} (or {!with_executor}) releases the pins so superseded
    page versions can be retired. *)

module Store = Dolx_core.Secure_store
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
  readers : Store.t array; (* one per worker slot *)
  pool : pool;
}

let create ?value_index ?pool_capacity ?(jobs = 1) store index =
  if jobs < 1 then invalid_arg "Exec.create: jobs must be >= 1";
  {
    store;
    index;
    value_index;
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

let with_executor ?value_index ?pool_capacity ?jobs store index f =
  let t = create ?value_index ?pool_capacity ?jobs store index in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_batch t queries =
  let items = Array.of_list queries in
  let n = Array.length items in
  let results = Array.make n None in
  let tasks =
    List.init n (fun i slot ->
        let pattern, semantics = items.(i) in
        results.(i) <-
          Some
            (Engine.run ?value_index:t.value_index t.readers.(slot) t.index
               pattern semantics))
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

(** {1 Statistics} *)

let reset_stats t = Array.iter Store.reset_stats t.readers
