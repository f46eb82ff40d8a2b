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

(* Frames live in [capacity] slots.  The page table maps page id to
   slot by open addressing: [table] has a power-of-two size of at least
   twice [capacity], each cell a slot (-1 empty) whose key is
   [page_at.(slot)], found by linear probing from a multiplicative hash
   of the page id.  Its size follows the pool, not the store, so a
   reader's pool costs the same to create however many pages the disk
   holds.  Recency is one doubly-linked list over the slots
   ([prev]/[next], -1 terminated), most recently used at [head]: exact
   LRU. *)
type t = {
  disk : Disk.t;
  capacity : int;
  max_read_retries : int;
  (* [Some e]: a reader pool pinned at epoch [e] — misses resolve
     through the disk's version chains to the image live at [e].
     Pinned pools never hold dirty frames (readers do not write), so a
     frame simply borrows the disk's immutable image; the live pool
     copies each image into a private frame that {!mark_dirty} may
     modify. *)
  epoch : int option;
  table : int array; (* page table cells: a slot, -1 when empty *)
  shift : int; (* hash: the top bits of a 63-bit product *)
  page_at : int array; (* slot -> page id, -1 when free *)
  frames : Page.t array; (* slot -> image *)
  dirty : bool array;
  prev : int array;
  next : int array;
  mutable head : int; (* most recently used slot, -1 when empty *)
  mutable tail : int; (* least recently used slot *)
  mutable free : int list;
  (* The page [get] last returned and its frame: it is the head, so a
     repeat [get] is a hit with nothing to move.  [last_id] is -1 while
     no such page is known. *)
  mutable last_id : int;
  mutable last : Page.t;
  stats : stats;
  mutable folded : stats; (* the values of [stats] at the last fold *)
}

(* log2 of the page table's size: at least twice [capacity], so a
   probe meets an empty cell within a few steps *)
let table_bits capacity =
  let rec go b = if 1 lsl b >= 2 * capacity then b else go (b + 1) in
  go 2

let create ?(capacity = 64) ?(max_read_retries = 3) ?epoch disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create";
  if max_read_retries < 0 then
    invalid_arg "Buffer_pool.create: negative max_read_retries";
  {
    disk;
    capacity;
    max_read_retries;
    epoch;
    table = Array.make (1 lsl table_bits capacity) (-1);
    shift = 63 - table_bits capacity;
    page_at = Array.make capacity (-1);
    frames = Array.make capacity Bytes.empty;
    dirty = Array.make capacity false;
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    head = -1;
    tail = -1;
    free = List.init capacity Fun.id;
    last_id = -1;
    last = Bytes.empty;
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

(* {2 Recency list} *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p;
  t.prev.(s) <- -1;
  t.next.(s) <- -1

let push_front t s =
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let to_front t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* {2 Page table} *)

let home t id = (id * 0x2545F4914F6CDD1D) lsr t.shift

let next_cell t h = (h + 1) land (Array.length t.table - 1)

(* The slot holding page [id], or -1, probing from cell [h].  The
   probe loops are top-level functions, so a lookup allocates no
   closure. *)
let rec probe t id h =
  let s = Array.unsafe_get t.table h in
  if s < 0 then -1
  else if Array.unsafe_get t.page_at s = id then s
  else probe t id (next_cell t h)

let slot t id = probe t id (home t id)

let rec empty_cell t h = if t.table.(h) < 0 then h else empty_cell t (next_cell t h)

let register t id s =
  t.table.(empty_cell t (home t id)) <- s;
  t.page_at.(s) <- id

let rec cell_of t s h = if t.table.(h) = s then h else cell_of t s (next_cell t h)

(* Close the hole at cell [hole], scanning the probe run from cell [j]:
   every cell that the hole would cut off from its home cell moves back
   into it, so no tombstone is ever left. *)
let rec shift_back t hole j =
  let c = t.table.(j) in
  if c < 0 then t.table.(hole) <- -1
  else begin
    let h = home t t.page_at.(c) in
    (* [c] may fill the hole unless its home lies cyclically in
       (hole, j] *)
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then shift_back t hole (next_cell t j)
    else begin
      t.table.(hole) <- c;
      shift_back t j (next_cell t j)
    end
  end

(* Drop slot [s]'s page from the table. *)
let unregister t s =
  let h = cell_of t s (home t t.page_at.(s)) in
  shift_back t h (next_cell t h)

let flush_slot t s =
  if t.dirty.(s) then begin
    Disk.write t.disk t.page_at.(s) t.frames.(s);
    t.dirty.(s) <- false
  end

(* Free the least recently used slot and return it. *)
let evict_one t =
  let s = t.tail in
  if s < 0 then failwith "Buffer_pool: no frame to evict";
  (* Flush the victim BEFORE unregistering it.  Unregistering first
     orphaned the frame when the write faulted: the dirty page was
     silently lost and a later [get] re-read the stale on-disk copy.  On
     a flush fault the victim is moved to most-recently-used — still
     resident, still dirty — and the fault propagates; a permanently bad
     page then surfaces on every further eviction attempt instead of
     failing open. *)
  (match flush_slot t s with
  | () -> ()
  | exception e ->
      t.stats.eviction_flush_failures <- t.stats.eviction_flush_failures + 1;
      to_front t s;
      raise e);
  unlink t s;
  unregister t s;
  t.page_at.(s) <- -1;
  t.stats.evictions <- t.stats.evictions + 1;
  s

(* Read with bounded retry: only [Transient_read] faults are retried —
   bad pages and checksum mismatches are not going to get better. *)
let read_retrying t id =
  let rec go attempts_left =
    try Disk.read ?epoch:t.epoch t.disk id with
    | Disk.Fault { kind = Disk.Transient_read; _ } when attempts_left > 0 ->
        t.stats.retries <- t.stats.retries + 1;
        go (attempts_left - 1)
  in
  go t.max_read_retries

let miss t id =
  t.stats.misses <- t.stats.misses + 1;
  (* eviction below may recycle the remembered page's frame *)
  t.last_id <- -1;
  let s =
    match t.free with
    | s :: rest ->
        t.free <- rest;
        s
    | [] -> evict_one t
  in
  match read_retrying t id with
  | exception e ->
      (* the slot was never populated: give it back *)
      t.free <- s :: t.free;
      raise e
  | img ->
      (match t.epoch with
      | Some _ -> t.frames.(s) <- img
      | None ->
          let size = Disk.page_size t.disk in
          if Bytes.length t.frames.(s) <> size then t.frames.(s) <- Page.create size;
          Bytes.blit img 0 t.frames.(s) 0 size);
      t.dirty.(s) <- false;
      register t id s;
      push_front t s;
      t.last_id <- id;
      t.last <- t.frames.(s);
      t.frames.(s)

(** Fetch page [id], reading from disk on a miss.  The returned bytes are
    the pool's frame: treat as read-only unless followed by
    [mark_dirty].  A repeat of the previous page is a counter bump; any
    other hit is a page-table load and a relink. *)
let get t id =
  t.stats.touches <- t.stats.touches + 1;
  if id = t.last_id then begin
    t.stats.hits <- t.stats.hits + 1;
    t.last
  end
  else
    let s = slot t id in
    if s >= 0 then begin
      t.stats.hits <- t.stats.hits + 1;
      to_front t s;
      t.last_id <- id;
      t.last <- t.frames.(s);
      t.last
    end
    else miss t id

(** Declare that the cached copy of [id] has been modified in place. *)
let mark_dirty t id =
  if t.epoch <> None then
    invalid_arg "Buffer_pool.mark_dirty: pinned pools are read-only";
  let s = slot t id in
  if s >= 0 then t.dirty.(s) <- true
  else
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
  for s = 0 to t.capacity - 1 do
    if t.page_at.(s) >= 0 then
      try flush_slot t s with e -> failures := (t.page_at.(s), e) :: !failures
  done;
  match !failures with
  | [] -> ()
  | fs ->
      Metrics.add c_flush_failures (List.length fs);
      raise (Flush_failed (List.sort (fun (a, _) (b, _) -> compare a b) fs))

(** Drop everything (writing dirty pages back); resets residency but not
    counters. *)
let clear t =
  let flush_error = try flush_all t; None with e -> Some e in
  Array.fill t.table 0 (Array.length t.table) (-1);
  List.iter (fun a -> Array.fill a 0 t.capacity (-1)) [ t.page_at; t.prev; t.next ];
  t.head <- -1;
  t.tail <- -1;
  t.free <- List.init t.capacity Fun.id;
  t.last_id <- -1;
  match flush_error with None -> () | Some e -> raise e

let resident t id = slot t id >= 0
