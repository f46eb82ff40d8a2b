(** Group commit: batch concurrent durable updates into shared flushes.

    A commit group keeps the current database image and one live store
    (the state that image loads as).  A leader drains up to [max_batch]
    queued update closures, applies each to the live store, appends its
    journal record to the image ({!Db_file.add_update}; the batch's
    records go into one buffer that holds the image once, materialized
    once per batch) and makes the batch durable with a {e single}
    modeled flush before waking the submitters.  No record reloads the
    image: the only loads are {!create}'s and the one after an update
    that raises.  Crash safety, the bounded wait and the flush model are
    described in the interface. *)

module Metrics = Dolx_obs.Metrics

let c_batches = Metrics.counter "commit.batches"

let c_records = Metrics.counter "commit.records"

let c_flushes = Metrics.counter "commit.flushes"

type stats = {
  batches : int;  (** leader drains (one flush each) *)
  records : int;  (** updates committed; one that raised is not *)
  flushes : int;  (** modeled flushes (= batches + checkpoints) *)
  modeled_flush_us : int;  (** flushes × flush_cost_us *)
}

type t = {
  m : Mutex.t;
  cond : Condition.t;
  pool_capacity : int option;
  max_batch : int;
  flush_cost_us : int;
  registry : (Dolx_policy.Subject.registry * Dolx_policy.Mode.registry) option;
  mutable image : Bytes.t; (* current durable image (journaled or clean) *)
  mutable store : Secure_store.t; (* what [image] loads as; the leader's *)
  mutable next_ticket : int;
  mutable durable : int; (* tickets < durable are flushed *)
  mutable leader : bool; (* a leader is applying a batch / checkpoint *)
  mutable queue : (int * (Secure_store.t -> unit)) list; (* oldest first *)
  failed : (int, exn) Hashtbl.t; (* accessed under [m] only *)
  mutable stats : stats;
}

let create ?pool_capacity ?(max_batch = 8) ?(flush_cost_us = 5_000) image =
  if max_batch < 1 then invalid_arg "Group_commit.create: max_batch < 1";
  if Bytes.length image = 0 then
    invalid_arg "Group_commit.create: empty image";
  let store, registry = Db_file.of_bytes ?pool_capacity image in
  {
    m = Mutex.create ();
    cond = Condition.create ();
    pool_capacity;
    max_batch;
    flush_cost_us;
    registry;
    image;
    store;
    next_ticket = 0;
    durable = 0;
    leader = false;
    queue = [];
    failed = Hashtbl.create 8;
    stats = { batches = 0; records = 0; flushes = 0; modeled_flush_us = 0 };
  }

let max_batch t = t.max_batch

let split_at k xs =
  let rec go k acc = function
    | x :: rest when k > 0 -> go (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go k [] xs

(* The leader bracket, entered with [t.m] held: wait for the flag and
   take it, run [work] outside the lock, then under it [install] the
   result, give the flag back and wake every waiter.  When [work]
   raises, nothing is installed but the flag is still given back.
   Returns [install]'s result with [t.m] released. *)
let lead t work install =
  while t.leader do
    Condition.wait t.cond t.m
  done;
  t.leader <- true;
  Mutex.unlock t.m;
  let r = match work () with x -> Ok x | exception e -> Error e in
  Mutex.lock t.m;
  let r = Result.map install r in
  t.leader <- false;
  Condition.broadcast t.cond;
  Mutex.unlock t.m;
  match r with Ok x -> x | Error e -> raise e

(* Leader work, outside the lock: apply each update of [batch] to the
   live store and append its record to one buffer holding the image.
   An update that raises commits nothing and is reported to its
   submitter: the store is reloaded from the image as of the last
   record, so no partial effect of it rides into a later record.
   Returns the new image (the old one itself when no record was
   written) and the failures, newest first. *)
let apply_batch t batch =
  let len = Bytes.length t.image in
  let buf = Buffer.create (len + 4096) in
  Buffer.add_bytes buf t.image;
  let failures =
    List.fold_left
      (fun failures (ticket, f) ->
        match Db_file.add_update buf t.store f with
        | () -> failures
        | exception e ->
            t.store <-
              fst (Db_file.of_bytes ?pool_capacity:t.pool_capacity (Buffer.to_bytes buf));
            (ticket, e) :: failures)
      [] batch
  in
  ((if Buffer.length buf = len then t.image else Buffer.to_bytes buf), failures)

(* Under [t.m]: count one flush, of [batches] batches (0 or 1) making
   [records] updates durable. *)
let count_flush t ~batches ~records =
  let s = t.stats in
  t.stats <-
    {
      batches = s.batches + batches;
      records = s.records + records;
      flushes = s.flushes + 1;
      modeled_flush_us = s.modeled_flush_us + t.flush_cost_us;
    };
  Metrics.add c_batches batches;
  Metrics.add c_records records;
  Metrics.incr c_flushes

(* Under [t.m]: install one flushed batch of [n] updates; returns its
   failures. *)
let finish_batch t (img, failures) n =
  t.image <- img;
  count_flush t ~batches:1 ~records:(n - List.length failures);
  failures

(** Submit one durable update and wait until it (and every update
    batched with it) is flushed.  The first waiter becomes the batch
    leader; later waiters piggyback on its flush.  Re-raises [f]'s
    exception in the submitting domain; the image then excludes [f]'s
    record but keeps the rest of its batch. *)
let submit t f =
  Mutex.lock t.m;
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  t.queue <- t.queue @ [ (ticket, f) ];
  let rec wait () =
    if t.durable > ticket then begin
      let r = Hashtbl.find_opt t.failed ticket in
      Hashtbl.remove t.failed ticket;
      Mutex.unlock t.m;
      match r with Some e -> raise e | None -> ()
    end
    else if t.leader then begin
      Condition.wait t.cond t.m;
      wait ()
    end
    else begin
      let batch, rest = split_at t.max_batch t.queue in
      t.queue <- rest;
      lead t
        (fun () -> apply_batch t batch)
        (fun r ->
          (match List.rev batch with
          | (last, _) :: _ -> t.durable <- last + 1
          | [] -> ());
          finish_batch t r (List.length batch)
          |> List.iter (fun (ticket, e) -> Hashtbl.replace t.failed ticket e));
      Mutex.lock t.m;
      wait ()
    end
  in
  wait ()

(** Deterministic batching for a single caller: apply [fs] in order,
    flushing once per [max_batch] chunk — exactly
    [ceil (length fs / max_batch)] flushes.  Must not race with other
    submitters of the same [t] (it serializes on the leader flag, but
    interleaving would make the chunking nondeterministic).  Re-raises
    the first failing update's exception after its chunk is flushed. *)
let submit_batch t fs =
  let rec go first_failure = function
    | [] -> Option.iter raise first_failure
    | fs ->
        let batch, rest = split_at t.max_batch fs in
        Mutex.lock t.m;
        let failures =
          lead t
            (fun () -> apply_batch t (List.map (fun f -> (-1, f)) batch))
            (fun r -> finish_batch t r (List.length batch))
        in
        go
          (match (first_failure, List.rev failures) with
          | None, (_, e) :: _ -> Some e
          | first, _ -> first)
          rest
  in
  go None fs

(** The current durable image (journaled between checkpoints). *)
let image t =
  Mutex.lock t.m;
  let img = t.image in
  Mutex.unlock t.m;
  img

(** Compact the journaled image to a clean one (the live store
    serialized with the registries), install it and return it.  Costs
    one modeled flush.  Serializes with in-flight batches. *)
let checkpoint t =
  Mutex.lock t.m;
  lead t
    (fun () ->
      match t.registry with
      | None -> Db_file.to_bytes t.store
      | Some (subjects, modes) -> Db_file.to_bytes ~subjects ~modes t.store)
    (fun clean ->
      t.image <- clean;
      count_flush t ~batches:0 ~records:0;
      clean)

let stats t =
  Mutex.lock t.m;
  let s = t.stats in
  Mutex.unlock t.m;
  s

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "batches=%d records=%d flushes=%d modeled_flush_us=%d" s.batches
    s.records s.flushes s.modeled_flush_us
