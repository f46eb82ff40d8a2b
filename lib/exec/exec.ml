(** Multicore query execution over a shared secured store.

    One store, many domains: an {!t} owns one {!Secure_store.reader}
    handle per worker slot.  The handles share the immutable evaluation
    state (document arena, DOL, NoK page layout, codebook, tag index)
    and the simulated disk — which serializes physical page I/O
    internally — while each keeps a private buffer pool, scan cursor and
    statistics, so evaluation never takes a lock on the hot path.

    The parallel shape is inter-query: {!run_batch} forks one domain per
    slot, each claiming independent (pattern, semantics) jobs from a
    shared counter and evaluating them with the sequential {!Engine.run}
    on its slot's reader, then joins them all.  Results are collected by
    index, never by completion order, so a batch is byte-identical to
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
module Xpath = Dolx_nok.Xpath

type t = {
  index : Tag_index.t;
  value_index : Value_index.t option;
  readers : Store.t array; (* one per worker slot *)
}

let create ?value_index ?pool_capacity ?(jobs = 1) store index =
  if jobs < 1 then invalid_arg "Exec.create: jobs must be >= 1";
  {
    index;
    value_index;
    readers = Array.init jobs (fun _ -> Store.reader ?pool_capacity store);
  }

let jobs t = Array.length t.readers

let readers t = Array.to_list t.readers

(* Idempotent ([Store.release] is): no domain outlives [run_batch], so
   releasing the pins is all there is to tear down. *)
let shutdown t = Array.iter Store.release t.readers

let with_executor ?value_index ?pool_capacity ?jobs store index f =
  let t = create ?value_index ?pool_capacity ?jobs store index in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_batch t queries =
  let items = Array.of_list queries in
  let n = Array.length items in
  let eval slot i =
    let pattern, semantics = items.(i) in
    Engine.run ?value_index:t.value_index t.readers.(slot) t.index pattern
      semantics
  in
  if jobs t = 1 then Array.to_list (Array.init n (eval 0))
  else begin
    (* Fork-join: every slot's domain drains the shared counter; the
       first failure is kept and the rest of the batch still runs, so
       the caller re-raises only after every domain has joined.  The
       caller records no spans while it waits (the main-domain rule of
       [Trace]). *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let worker slot () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match eval slot i with
          | r -> results.(i) <- Some r
          | exception e -> ignore (Atomic.compare_and_set error None (Some e)));
          loop ()
        end
      in
      loop ()
    in
    Array.iter Domain.join
      (Array.init (jobs t) (fun slot -> Domain.spawn (worker slot)));
    match Atomic.get error with
    | Some e -> raise e
    | None -> Array.to_list (Array.map Option.get results)
  end

let query_batch t queries =
  run_batch t
    (List.map (fun (xpath, semantics) -> (Xpath.parse xpath, semantics)) queries)

(** {1 Statistics} *)

let reset_stats t = Array.iter Store.reset_stats t.readers
