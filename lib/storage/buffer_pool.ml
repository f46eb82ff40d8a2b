(** A buffer pool over the simulated {!Disk} with LRU replacement.

    Pages are fetched through the pool so every experiment can report
    logical page touches, buffer hits, and physical disk I/O separately.
    The ε-NoK evaluation result (≈2% overhead, paper §5.2) rests on the
    access-control check being buffer-resident ("piggy-backed") — the
    counters here are what demonstrate it.

    Disk faults are handled, not ignored: transient read errors are
    retried a bounded number of times (counted in [stats.retries]), and
    {!flush_all} attempts every dirty frame before reporting failures,
    so one bad page cannot silently discard unrelated dirty pages. *)

module Lru = Dolx_util.Lru
module Metrics = Dolx_obs.Metrics

(* Registry counters.  The first six mirror [stats] fields and are fed
   only by {!fold_metrics}; flushes have no field and are counted here
   directly. *)
let c_touches = Metrics.counter "pool.touches"

let c_hits = Metrics.counter "pool.hits"

let c_misses = Metrics.counter "pool.misses"

let c_retries = Metrics.counter "pool.retries"

let c_evictions = Metrics.counter "pool.evictions"

let c_eviction_flush_failures = Metrics.counter "pool.eviction_flush_failures"

let c_flush_failures = Metrics.counter "pool.flush_failures"

let c_flushes = Metrics.counter "pool.flushes"

exception Flush_failed of (int * exn) list

let () =
  Printexc.register_printer (function
    | Flush_failed failures ->
        Some
          (Printf.sprintf "Buffer_pool.Flush_failed([%s])"
             (String.concat "; "
                (List.map
                   (fun (pid, exn) ->
                     Printf.sprintf "page %d: %s" pid (Printexc.to_string exn))
                   failures)))
    | _ -> None)

type stats = {
  mutable touches : int; (* logical page accesses *)
  mutable hits : int;
  mutable misses : int;
  mutable retries : int; (* re-reads after transient disk faults *)
  mutable evictions : int; (* frames recycled to make room *)
  mutable eviction_flush_failures : int;
      (* evictions aborted because the victim's dirty flush faulted; the
         victim stays resident, so no modified page is ever dropped *)
}

let zero_stats () =
  { touches = 0; hits = 0; misses = 0; retries = 0; evictions = 0;
    eviction_flush_failures = 0 }

type frame = {
  mutable page_id : int;
  data : Page.t;
  mutable dirty : bool;
  (* The frame's position in the recency list, so a hit touches the LRU
     through the node (pointer compare when already MRU) instead of a
     second hash lookup. *)
  mutable lnode : Lru.node;
}

type t = {
  disk : Disk.t;
  capacity : int;
  max_read_retries : int;
  (* [Some e]: a reader pool pinned at epoch [e] — misses resolve
     through the disk's version chains to the image live at [e].
     Pinned pools never hold dirty frames (readers do not write). *)
  epoch : int option;
  frames : (int, frame) Hashtbl.t; (* page_id -> frame *)
  lru : Lru.t;
  stats : stats;
  mutable folded : stats; (* the values of [stats] at the last fold *)
}

let create ?(capacity = 64) ?(max_read_retries = 3) ?epoch disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create";
  if max_read_retries < 0 then
    invalid_arg "Buffer_pool.create: negative max_read_retries";
  {
    disk;
    capacity;
    max_read_retries;
    epoch;
    frames = Hashtbl.create (2 * capacity);
    lru = Lru.create ~capacity_hint:capacity ();
    stats = zero_stats ();
    folded = zero_stats ();
  }

let disk t = t.disk

let stats t = t.stats

let fold_metrics t =
  let s = t.stats and f = t.folded in
  Metrics.add c_touches (s.touches - f.touches);
  Metrics.add c_hits (s.hits - f.hits);
  Metrics.add c_misses (s.misses - f.misses);
  Metrics.add c_retries (s.retries - f.retries);
  Metrics.add c_evictions (s.evictions - f.evictions);
  Metrics.add c_eviction_flush_failures
    (s.eviction_flush_failures - f.eviction_flush_failures);
  t.folded <- { s with touches = s.touches }

let reset_stats t =
  fold_metrics t;
  t.stats.touches <- 0;
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.retries <- 0;
  t.stats.evictions <- 0;
  t.stats.eviction_flush_failures <- 0;
  t.folded <- zero_stats ()

let flush_frame t frame =
  if frame.dirty then begin
    Disk.write t.disk frame.page_id frame.data;
    frame.dirty <- false
  end

let evict_one t =
  match Lru.pop_lru t.lru with
  | None -> failwith "Buffer_pool: all frames pinned (impossible: no pinning)"
  | Some victim ->
      let frame = Hashtbl.find t.frames victim in
      (* Flush the victim BEFORE unregistering it.  The old order
         (remove, then flush) orphaned the frame when the write faulted:
         the dirty page was silently lost and a later [get] re-read the
         stale on-disk copy.  On a flush fault the victim is re-queued
         as most-recently-used — still resident, still dirty — and the
         fault propagates; a permanently bad page then surfaces on every
         further eviction attempt instead of failing open. *)
      (match flush_frame t frame with
      | () -> ()
      | exception e ->
          t.stats.eviction_flush_failures <- t.stats.eviction_flush_failures + 1;
          frame.lnode <- Lru.insert t.lru victim;
          raise e);
      Hashtbl.remove t.frames victim;
      t.stats.evictions <- t.stats.evictions + 1;
      frame

(* Read with bounded retry: only [Transient_read] faults are retried —
   bad pages and checksum mismatches are not going to get better. *)
let read_retrying t id dst =
  let rec go attempts_left =
    try Disk.read ?epoch:t.epoch t.disk id dst with
    | Disk.Fault { kind = Disk.Transient_read; _ } when attempts_left > 0 ->
        t.stats.retries <- t.stats.retries + 1;
        go (attempts_left - 1)
  in
  go t.max_read_retries

(** Fetch page [id], reading from disk on a miss.  The returned bytes are
    the pool's frame: treat as read-only unless followed by
    [mark_dirty].  The hit path is one hash lookup (the LRU is touched
    through the frame's node, a no-op when the frame is already MRU). *)
let get t id =
  t.stats.touches <- t.stats.touches + 1;
  match Hashtbl.find_opt t.frames id with
  | Some frame ->
      t.stats.hits <- t.stats.hits + 1;
      Lru.touch_node t.lru frame.lnode;
      frame.data
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      let frame =
        if Hashtbl.length t.frames >= t.capacity then begin
          let f = evict_one t in
          f.page_id <- id;
          f
        end
        else
          {
            page_id = id;
            data = Page.create (Disk.page_size t.disk);
            dirty = false;
            lnode = Lru.detached ();
          }
      in
      (match read_retrying t id frame.data with
      | () -> ()
      | exception e ->
          (* Recycled frames must not stay registered under their old id
             with stale dirty state; the read never populated [frame]. *)
          frame.dirty <- false;
          raise e);
      frame.dirty <- false;
      Hashtbl.replace t.frames id frame;
      frame.lnode <- Lru.insert t.lru id;
      frame.data

(** Declare that the cached copy of [id] has been modified in place. *)
let mark_dirty t id =
  match Hashtbl.find_opt t.frames id with
  | Some frame -> frame.dirty <- true
  | None ->
      invalid_arg
        (Printf.sprintf
           "Buffer_pool.mark_dirty: page %d not resident (mark_dirty must \
            follow the get that produced the frame, before any other get \
            that could evict it)"
           id)

(** Write all dirty frames back to disk.  Every dirty frame is attempted;
    failures are collected and reported together. *)
let flush_all t =
  Metrics.incr c_flushes;
  let failures = ref [] in
  Hashtbl.iter
    (fun pid frame ->
      try flush_frame t frame
      with e -> failures := (pid, e) :: !failures)
    t.frames;
  match !failures with
  | [] -> ()
  | fs ->
      Metrics.add c_flush_failures (List.length fs);
      raise (Flush_failed (List.sort (fun (a, _) (b, _) -> compare a b) fs))

(** Drop everything (writing dirty pages back); resets residency but not
    counters. *)
let clear t =
  let flush_error = try flush_all t; None with e -> Some e in
  Hashtbl.reset t.frames;
  while Lru.pop_lru t.lru <> None do
    ()
  done;
  match flush_error with None -> () | Some e -> raise e

let resident t id = Hashtbl.mem t.frames id
