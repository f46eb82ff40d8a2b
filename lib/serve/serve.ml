(** Multi-tenant streaming query service.

    A {!t} owns a fixed pool of worker domains, a registry of tenant
    shards, and per-tenant FIFO queues drained by stride-based weighted
    fair queuing.  Clients submit XPath queries and receive a {!ticket}
    — a bounded stream of answer chunks with backpressure: the worker
    evaluating the query blocks once [buffer_chunks] chunks are waiting,
    so per-query buffered-result memory stays bounded no matter how
    large the answer set or how slow the consumer.

    Isolation and lifecycle:

    - each query runs on its own {!Secure_store.reader} over the
      tenant's shard — an epoch-pinned snapshot, so concurrent writers
      never leak in-flight updates into a running stream; the pin is
      released when the stream is drained, {!close}d early, or fails;
    - tenant shards backed by a {!Db_file} are opened on demand and
      evicted least-recently-used beyond [shard_cap] (only when no
      query holds a reader on them), so serving many tenants does not
      keep every store resident;
    - admission control bounds the total queued work: past [max_queued]
      a {!submit} is shed with {!Overloaded} — never silently dropped.

    Locking: [t.m] guards the scheduler and shard registry; each ticket
    has its own mutex.  A domain never holds both at once — workers
    dequeue under [t.m], release it, then produce under the ticket's
    lock — so a stalled consumer can never wedge the scheduler. *)

module Store = Dolx_core.Secure_store
module Db_file = Dolx_core.Db_file
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Pattern = Dolx_nok.Pattern
module Xpath = Dolx_nok.Xpath
module Metrics = Dolx_obs.Metrics

exception Overloaded

let c_submitted = Metrics.counter "serve.submitted"

let c_served = Metrics.counter "serve.served"

let c_shed = Metrics.counter "serve.shed"

let c_shard_opens = Metrics.counter "serve.shard_opens"

let c_shard_evictions = Metrics.counter "serve.shard_evictions"

(** {1 Tickets} *)

type ticket = {
  tk_m : Mutex.t;
  tk_c : Condition.t;
  tk_chunks : int list Queue.t;
  tk_buffer_chunks : int;       (* producer blocks past this many *)
  mutable tk_closed : bool;     (* consumer cancelled *)
  mutable tk_finished : bool;   (* producer pushed its last chunk *)
  mutable tk_last : bool;       (* the newest queued chunk ends the stream *)
  mutable tk_released : bool;   (* worker fully done: reader released *)
  mutable tk_error : exn option;
  mutable tk_emitted : int;
  mutable tk_peak : int;        (* stream high-water of buffered answers *)
  mutable tk_seq : int;         (* completion order stamp, -1 while open *)
}

let make_ticket buffer_chunks =
  {
    tk_m = Mutex.create ();
    tk_c = Condition.create ();
    tk_chunks = Queue.create ();
    tk_buffer_chunks = buffer_chunks;
    tk_closed = false;
    tk_finished = false;
    tk_last = false;
    tk_released = false;
    tk_error = None;
    tk_emitted = 0;
    tk_peak = 0;
    tk_seq = -1;
  }

(* Producer side, under [tk_m]: wait for room in the buffer
   (backpressure), then queue [chunk].  Returns [false] when the
   consumer closed the ticket — the worker should stop evaluating. *)
let enqueue tk chunk =
  while
    (not tk.tk_closed) && Queue.length tk.tk_chunks >= tk.tk_buffer_chunks
  do
    Condition.wait tk.tk_c tk.tk_m
  done;
  let alive = not tk.tk_closed in
  if alive then begin
    Queue.add chunk tk.tk_chunks;
    tk.tk_emitted <- tk.tk_emitted + List.length chunk;
    Condition.broadcast tk.tk_c
  end;
  alive

let ticket_push tk chunk =
  Mutex.lock tk.tk_m;
  let alive = enqueue tk chunk in
  Mutex.unlock tk.tk_m;
  alive

(* Producer side: terminal transition.  The stream's [last] chunk, when
   the chunk that ended it carries answers, is queued in the same
   critical section (still honoring backpressure), so the consumer that
   takes it already knows nothing follows.  Buffered chunks stay
   readable (unless the consumer closed first); [next_chunk] drains them
   and then reports end-of-stream or the error. *)
let ticket_finish tk ?last ?error ?(seq = -1) ~peak () =
  Mutex.lock tk.tk_m;
  (match last with
  | Some chunk -> if enqueue tk chunk then tk.tk_last <- true
  | None -> ());
  tk.tk_finished <- true;
  (match error with Some _ when tk.tk_error = None -> tk.tk_error <- error | _ -> ());
  tk.tk_peak <- max tk.tk_peak peak;
  if seq >= 0 then tk.tk_seq <- seq;
  Condition.broadcast tk.tk_c;
  Mutex.unlock tk.tk_m

(* The worker has let go of everything the query held. *)
let ticket_release tk =
  Mutex.lock tk.tk_m;
  tk.tk_released <- true;
  Condition.broadcast tk.tk_c;
  Mutex.unlock tk.tk_m

let next_chunk_last tk =
  Mutex.lock tk.tk_m;
  let rec wait () =
    match Queue.take_opt tk.tk_chunks with
    | Some chunk ->
        let last = tk.tk_last && Queue.is_empty tk.tk_chunks in
        Condition.broadcast tk.tk_c;
        Mutex.unlock tk.tk_m;
        (chunk, last)
    | None ->
        if tk.tk_closed then begin
          Mutex.unlock tk.tk_m;
          invalid_arg "Serve.next_chunk: ticket was closed"
        end
        else if tk.tk_finished then begin
          let err = tk.tk_error in
          Mutex.unlock tk.tk_m;
          match err with Some e -> raise e | None -> ([], true)
        end
        else begin
          Condition.wait tk.tk_c tk.tk_m;
          wait ()
        end
  in
  wait ()

let next_chunk tk = fst (next_chunk_last tk)

let close tk =
  Mutex.lock tk.tk_m;
  if not tk.tk_closed then begin
    tk.tk_closed <- true;
    Queue.clear tk.tk_chunks;
    Condition.broadcast tk.tk_c
  end;
  Mutex.unlock tk.tk_m

(* Wait until the worker has fully let go of the query's resources
   (reader released, stream closed) — or until shutdown does it for a
   job that never ran. *)
let await_release tk =
  Mutex.lock tk.tk_m;
  while not tk.tk_released do
    Condition.wait tk.tk_c tk.tk_m
  done;
  Mutex.unlock tk.tk_m

let collect tk =
  let rec go acc =
    match next_chunk tk with
    | [] -> List.concat (List.rev acc)
    | chunk -> go (chunk :: acc)
  in
  go []

let ticket_emitted tk =
  Mutex.lock tk.tk_m;
  let n = tk.tk_emitted in
  Mutex.unlock tk.tk_m;
  n

let ticket_peak_buffered tk =
  Mutex.lock tk.tk_m;
  let n = tk.tk_peak in
  Mutex.unlock tk.tk_m;
  n

let completion_seq tk =
  Mutex.lock tk.tk_m;
  let s = tk.tk_seq in
  Mutex.unlock tk.tk_m;
  s

(** {1 Shard registry} *)

type shard_source =
  | Mem of Store.t * Tag_index.t
  | Db of string  (* Db_file path, opened on demand *)

type shard = {
  sh_source : shard_source;
  mutable sh_open : (Store.t * Tag_index.t) option;
  mutable sh_refs : int;      (* queries holding a reader on this shard *)
  mutable sh_last_use : int;  (* registry clock stamp *)
}

(** {1 Scheduler} *)

(* [jb_pattern] runs on the worker: a submitted XPath string is parsed
   there, so a malformed query fails through its ticket. *)
type job = {
  jb_pattern : unit -> Pattern.t;
  jb_semantics : Engine.semantics;
  jb_ticket : ticket;
}

type tenant = {
  tn_name : string;
  tn_weight : float;
  mutable tn_pass : float;  (* stride virtual time *)
  tn_jobs : job Queue.t;
  tn_shard : shard;
  mutable tn_served : int;
}

type t = {
  m : Mutex.t;
  work : Condition.t;
  tenants : (string, tenant) Hashtbl.t;
  chunk : int;
  buffer_chunks : int;
  max_queued : int;
  shard_cap : int;
  mutable clock : int;        (* shard LRU stamps *)
  mutable queued : int;       (* jobs accepted, not yet picked *)
  mutable vclock : float;     (* max pass ever dispatched *)
  mutable seq : int;          (* completion order counter *)
  mutable served : int;
  mutable shed : int;
  mutable shard_opens : int;
  mutable shard_evictions : int;
  mutable peak_buffered : int; (* max stream high-water across queries *)
  mutable running : ticket list; (* in-flight queries, for shutdown *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let open_shards t =
  Hashtbl.fold (fun _ tn n -> if tn.tn_shard.sh_open <> None then n + 1 else n)
    t.tenants 0

(* Called under [t.m].  Opens the shard if needed, bumps its refcount
   and LRU stamp, and evicts idle Db-backed shards beyond the cap.
   Mem shards count toward nothing and are never evicted — their
   lifetime belongs to the caller. *)
let acquire_shard t tenant =
  let sh = tenant.tn_shard in
  t.clock <- t.clock + 1;
  sh.sh_last_use <- t.clock;
  (match (sh.sh_open, sh.sh_source) with
  | Some _, _ -> ()
  | None, Mem (store, index) -> sh.sh_open <- Some (store, index)
  | None, Db path ->
      let store, _registries = Db_file.load path in
      let index = Tag_index.build (Store.tree store) in
      sh.sh_open <- Some (store, index);
      t.shard_opens <- t.shard_opens + 1;
      Metrics.incr c_shard_opens;
      (* evict LRU idle Db shards beyond the cap *)
      let open_db =
        Hashtbl.fold
          (fun _ tn acc ->
            match (tn.tn_shard.sh_source, tn.tn_shard.sh_open) with
            | Db _, Some _ -> tn.tn_shard :: acc
            | _ -> acc)
          t.tenants []
      in
      let excess = List.length open_db - t.shard_cap in
      if excess > 0 then
        List.to_seq
          (List.sort (fun a b -> compare a.sh_last_use b.sh_last_use) open_db)
        |> Seq.filter (fun s -> s.sh_refs = 0 && s != sh)
        |> Seq.take excess
        |> Seq.iter (fun s ->
               s.sh_open <- None;
               t.shard_evictions <- t.shard_evictions + 1;
               Metrics.incr c_shard_evictions));
  sh.sh_refs <- sh.sh_refs + 1;
  match sh.sh_open with
  | Some (store, index) -> (store, index)
  | None -> assert false

let release_shard t tenant =
  Mutex.lock t.m;
  tenant.tn_shard.sh_refs <- tenant.tn_shard.sh_refs - 1;
  Mutex.unlock t.m

(* Stride scheduling: pick the non-empty tenant queue with the smallest
   pass value (ties broken by name for determinism); advance its pass by
   1/weight.  A tenant going idle and returning re-enters at the current
   virtual clock ([submit] lifts its pass), so sleepers cannot hoard
   credit and flooders cannot starve light tenants: between any two
   picks of a flooding tenant, every backlogged tenant of equal weight
   is picked once. *)
let pick_job t =
  let best =
    Hashtbl.fold
      (fun _ tn acc ->
        if Queue.is_empty tn.tn_jobs then acc
        else
          match acc with
          | Some b
            when (b.tn_pass, b.tn_name) <= (tn.tn_pass, tn.tn_name) ->
              acc
          | _ -> Some tn)
      t.tenants None
  in
  match best with
  | None -> None
  | Some tn ->
      let job = Queue.pop tn.tn_jobs in
      t.queued <- t.queued - 1;
      t.vclock <- Float.max t.vclock tn.tn_pass;
      tn.tn_pass <- tn.tn_pass +. (1.0 /. tn.tn_weight);
      Some (tn, job)

(* Evaluate one job to its ticket.  The reader pin, the stream and the
   ticket are all released on every path — including consumer close,
   evaluation error, and parse error. *)
let run_job t tenant job =
  let tk = job.jb_ticket in
  let unregister () =
    Mutex.lock t.m;
    t.running <- List.filter (fun r -> r != tk) t.running;
    Mutex.unlock t.m
  in
  if tk.tk_closed then begin
    unregister ();
    ticket_finish tk ~peak:0 ();
    ticket_release tk
  end
  else begin
    Mutex.lock t.m;
    let store, index = acquire_shard t tenant in
    Mutex.unlock t.m;
    let reader = Store.reader store in
    let finished = ref false in
    (* The reader and the shard are released before the ticket learns
       the stream is over, so a consumer that has seen the end sees no
       pin of this query.  [tk] leaves [t.running] only after the
       (possibly blocking) final push, so {!shutdown} can still cancel
       it. *)
    let finish ?last ?error ~peak () =
      if !finished then ()
      else begin
      finished := true;
      Store.release reader;
      release_shard t tenant;
      Mutex.lock t.m;
      t.seq <- t.seq + 1;
      let seq = t.seq in
      (match error with
      | None ->
          t.served <- t.served + 1;
          tenant.tn_served <- tenant.tn_served + 1;
          t.peak_buffered <- max t.peak_buffered peak
      | Some _ -> ());
      Mutex.unlock t.m;
      ticket_finish tk ?last ?error ~seq ~peak ();
      unregister ();
      ticket_release tk;
      if error = None then Metrics.incr c_served
      end
    in
    match
      Engine.stream ~chunk:t.chunk reader index (job.jb_pattern ())
        job.jb_semantics
    with
    | exception e -> finish ~error:e ~peak:0 ()
    | stream -> (
        let rec pump () =
          match Engine.stream_next stream with
          | [] -> finish ~peak:(Engine.stream_peak_buffered stream) ()
          | chunk when Engine.stream_finished stream ->
              (* the chunk that exhausted the source ends the stream *)
              finish ~last:chunk ~peak:(Engine.stream_peak_buffered stream) ()
          | chunk ->
              if ticket_push tk chunk then pump ()
              else begin
                (* consumer closed mid-stream: flush the partial
                   statistics and stop evaluating *)
                Engine.stream_close stream;
                finish ~peak:(Engine.stream_peak_buffered stream) ()
              end
        in
        match pump () with
        | () -> ()
        | exception e ->
            Engine.stream_close stream;
            finish ~error:e ~peak:(Engine.stream_peak_buffered stream) ())
  end

let worker_loop t =
  Mutex.lock t.m;
  let rec next () =
    if t.stop then Mutex.unlock t.m
    else
      match pick_job t with
      | None ->
          Condition.wait t.work t.m;
          next ()
      | Some (tenant, job) ->
          t.running <- job.jb_ticket :: t.running;
          Mutex.unlock t.m;
          run_job t tenant job;
          Mutex.lock t.m;
          next ()
  in
  next ()

(** {1 Service lifecycle} *)

let create ?(jobs = 2) ?(chunk = 256) ?(buffer_chunks = 4) ?(max_queued = 1024)
    ?(shard_cap = 8) () =
  if jobs < 1 then invalid_arg "Serve.create: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Serve.create: chunk must be >= 1";
  if buffer_chunks < 1 then invalid_arg "Serve.create: buffer_chunks must be >= 1";
  if max_queued < 1 then invalid_arg "Serve.create: max_queued must be >= 1";
  if shard_cap < 1 then invalid_arg "Serve.create: shard_cap must be >= 1";
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      tenants = Hashtbl.create 16;
      chunk;
      buffer_chunks;
      max_queued;
      shard_cap;
      clock = 0;
      queued = 0;
      vclock = 0.0;
      seq = 0;
      served = 0;
      shed = 0;
      shard_opens = 0;
      shard_evictions = 0;
      peak_buffered = 0;
      running = [];
      stop = false;
      domains = [||];
    }
  in
  t.domains <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let add_tenant t ?(weight = 1.0) name source =
  if weight <= 0.0 then invalid_arg "Serve.add_tenant: weight must be > 0";
  Mutex.lock t.m;
  if Hashtbl.mem t.tenants name then begin
    Mutex.unlock t.m;
    invalid_arg ("Serve.add_tenant: duplicate tenant " ^ name)
  end;
  Hashtbl.replace t.tenants name
    {
      tn_name = name;
      tn_weight = weight;
      tn_pass = t.vclock;
      tn_jobs = Queue.create ();
      tn_shard = { sh_source = source; sh_open = None; sh_refs = 0; sh_last_use = 0 };
      tn_served = 0;
    };
  Mutex.unlock t.m

let submit_pattern t ~tenant pattern semantics =
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Serve.submit: service is shut down"
  end;
  match Hashtbl.find_opt t.tenants tenant with
  | None ->
      Mutex.unlock t.m;
      invalid_arg ("Serve.submit: unknown tenant " ^ tenant)
  | Some tn ->
      if t.queued >= t.max_queued then begin
        t.shed <- t.shed + 1;
        Mutex.unlock t.m;
        Metrics.incr c_shed;
        raise Overloaded
      end;
      let tk = make_ticket t.buffer_chunks in
      (* re-entering tenants join at the current virtual time: an idle
         queue's stale pass would otherwise grant it a catch-up burst *)
      if Queue.is_empty tn.tn_jobs then tn.tn_pass <- Float.max tn.tn_pass t.vclock;
      Queue.add
        { jb_pattern = pattern; jb_semantics = semantics; jb_ticket = tk }
        tn.tn_jobs;
      t.queued <- t.queued + 1;
      Condition.signal t.work;
      Mutex.unlock t.m;
      Metrics.incr c_submitted;
      tk

let submit t ~tenant xpath semantics =
  submit_pattern t ~tenant (fun () -> Xpath.parse xpath) semantics

(* One tenant's tickets are dispatched FIFO, so draining them in
   submission order always drains the one a worker is producing into
   (the drain rule of the module comment).  At most [max_queued] are
   open at once, so a batch alone on the service is never shed. *)
let run_batch t ~tenant queries =
  let open_tickets = Queue.create () in
  let answers = ref [] and error = ref None in
  let drain_one () =
    match collect (Queue.pop open_tickets) with
    | a -> answers := a :: !answers
    | exception e -> if !error = None then error := Some e
  in
  (* a [submit_pattern] that raises leaves no ticket open behind it *)
  Fun.protect
    ~finally:(fun () -> Queue.iter close open_tickets)
    (fun () ->
      List.iter
        (fun (pattern, semantics) ->
          if Queue.length open_tickets >= t.max_queued then drain_one ();
          Queue.add
            (submit_pattern t ~tenant (fun () -> pattern) semantics)
            open_tickets)
        queries;
      while not (Queue.is_empty open_tickets) do
        drain_one ()
      done);
  match !error with Some e -> raise e | None -> List.rev !answers

let shutdown t =
  Mutex.lock t.m;
  if t.stop then Mutex.unlock t.m
  else begin
    t.stop <- true;
    Condition.broadcast t.work;
    let in_flight = t.running in
    Mutex.unlock t.m;
    (* cancel in-flight streams: a worker blocked on a full ticket whose
       consumer went away would otherwise never observe [stop] *)
    List.iter close in_flight;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (* fail any job still queued — accepted work is never silently
       dropped, even across shutdown *)
    Mutex.lock t.m;
    Hashtbl.iter
      (fun _ tn ->
        Queue.iter
          (fun job ->
            ticket_finish job.jb_ticket
              ~error:(Failure "Serve: shut down before the query ran")
              ~peak:0 ();
            ticket_release job.jb_ticket)
          tn.tn_jobs;
        Queue.clear tn.tn_jobs)
      t.tenants;
    t.queued <- 0;
    Mutex.unlock t.m
  end

let with_service ?jobs ?chunk ?buffer_chunks ?max_queued ?shard_cap f =
  let t = create ?jobs ?chunk ?buffer_chunks ?max_queued ?shard_cap () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(** {1 Statistics} *)

type stats = {
  served : int;
  shed : int;
  queued : int;
  tenants : (string * int) list;  (* per-tenant served counts *)
  shard_opens : int;
  shard_evictions : int;
  open_shards : int;
  peak_buffered : int;
  pinned_readers : int;
}

(* Epoch pins held across every distinct store the service can reach —
   open shards and resident Mem shards alike (an evicted Db shard has no
   store, hence no pins).  Stores are deduplicated by physical identity:
   several tenants may share one store.  The pin counts are read after
   releasing [t.m] — [Epoch.pin_count] takes the epoch lock, and we
   never hold both. *)
let pinned_readers t =
  Mutex.lock t.m;
  let stores =
    Hashtbl.fold
      (fun _ tn acc ->
        let store =
          match (tn.tn_shard.sh_open, tn.tn_shard.sh_source) with
          | Some (store, _), _ -> Some store
          | None, Mem (store, _) -> Some store
          | None, Db _ -> None
        in
        match store with
        | Some s when not (List.memq s acc) -> s :: acc
        | _ -> acc)
      t.tenants []
  in
  Mutex.unlock t.m;
  List.fold_left
    (fun n s ->
      n + Dolx_storage.Epoch.pin_count (Dolx_storage.Disk.epoch (Store.disk s)))
    0 stores

let stats t =
  Mutex.lock t.m;
  let s =
    {
      served = t.served;
      shed = t.shed;
      queued = t.queued;
      tenants =
        List.sort compare
          (Hashtbl.fold (fun name tn acc -> (name, tn.tn_served) :: acc)
             t.tenants []);
      shard_opens = t.shard_opens;
      shard_evictions = t.shard_evictions;
      open_shards = open_shards t;
      peak_buffered = t.peak_buffered;
      pinned_readers = 0;
    }
  in
  Mutex.unlock t.m;
  { s with pinned_readers = pinned_readers t }
