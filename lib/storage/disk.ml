(** A simulated block device with modeled faults.

    Pages are stored in memory; the point is faithful accounting of page
    reads and writes (and an optional synthetic latency model) so that the
    paper's I/O arguments — "the access control check for d requires no
    additional I/O" (§3.3), "the cost for updating accessibility of a
    subtree with N nodes would be N/B page reads and writes" (§3.4) — can
    be measured rather than asserted.

    On top of the idealized device sits a fault model, because an access
    control store must not fail open when hardware misbehaves:

    - every write records a CRC32C of the intended page image; every read
      re-verifies it, so any divergence between intended and stored bytes
      surfaces as a typed {!Fault} instead of silently corrupt labels;
    - a {!fault_plan} (driven by an explicit [Prng.t], so every failure
      schedule is reproducible) injects transient read errors, permanent
      bad pages, torn writes (only a prefix of the page persists) and
      random bit flips. *)

module Prng = Dolx_util.Prng
module Crc = Dolx_util.Crc
module Metrics = Dolx_obs.Metrics

(* Registry counters.  The [stats] fields and the two simulated clocks
   reach them only through {!fold_metrics}, which adds what each field
   gained since the disk's last fold (see docs/ARCHITECTURE.md §7); bad
   pages and the live-version gauge have no field and are written here
   directly. *)
let c_reads = Metrics.counter "disk.reads"

let c_writes = Metrics.counter "disk.writes"

let c_allocations = Metrics.counter "disk.allocations"

let c_transient_faults = Metrics.counter "disk.transient_faults"

let c_torn_writes = Metrics.counter "disk.torn_writes"

let c_bit_flips = Metrics.counter "disk.bit_flips"

let c_checksum_failures = Metrics.counter "disk.checksum_failures"

let c_bad_page_faults = Metrics.counter "disk.bad_page_faults"

let g_simulated_us = Metrics.gauge "disk.simulated_us"

let g_crc_us = Metrics.gauge "disk.crc_us"

let c_versions_saved = Metrics.counter "disk.versions_saved"

let c_versions_retired = Metrics.counter "disk.versions_retired"

let g_versions_live = Metrics.gauge "disk.versions_live"

type fault_kind =
  | Transient_read  (** the read failed but a retry may succeed *)
  | Bad_page  (** the page is permanently unreadable/unwritable *)
  | Checksum_mismatch  (** stored bytes do not match the recorded CRC32C *)

let fault_kind_name = function
  | Transient_read -> "transient read error"
  | Bad_page -> "bad page"
  | Checksum_mismatch -> "checksum mismatch"

exception Fault of { page : int; kind : fault_kind }

let () =
  Printexc.register_printer (function
    | Fault { page; kind } ->
        Some (Printf.sprintf "Disk.Fault(page %d: %s)" page (fault_kind_name kind))
    | _ -> None)

type fault_plan = {
  fault_prng : Prng.t;
  transient_read_p : float;  (** per read: raise [Transient_read] *)
  torn_write_p : float;  (** per write: persist only a random prefix *)
  bit_flip_p : float;  (** per write: flip one random stored bit *)
  bad_page_p : float;  (** per write: page goes permanently bad after *)
}

let fault_plan ?(transient_read_p = 0.0) ?(torn_write_p = 0.0)
    ?(bit_flip_p = 0.0) ?(bad_page_p = 0.0) prng =
  { fault_prng = prng; transient_read_p; torn_write_p; bit_flip_p; bad_page_p }

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable allocations : int;
  mutable transient_faults : int;  (** injected transient read errors *)
  mutable torn_writes : int;  (** injected torn writes *)
  mutable bit_flips : int;  (** injected bit flips *)
  mutable checksum_failures : int;  (** reads rejected by CRC verification *)
  mutable versions_saved : int;  (** page images retained for pinned epochs *)
  mutable versions_retired : int;  (** retained images dropped at the horizon *)
}

let zero_stats () =
  { reads = 0; writes = 0; allocations = 0; transient_faults = 0;
    torn_writes = 0; bit_flips = 0; checksum_failures = 0;
    versions_saved = 0; versions_retired = 0 }

let copy_stats s = { s with reads = s.reads }

type t = {
  page_size : int;
  mutable pages : Page.t array;
  mutable crcs : int array; (* CRC32C of the *intended* image of each page *)
  mutable count : int;
  stats : stats;
  (* The values [stats] and the clocks had at the last fold. *)
  mutable folded : stats;
  mutable folded_us : float;
  mutable folded_crc_us : float;
  (* Synthetic cost model: simulated microseconds charged per page I/O,
     accumulated so experiments can report "disk time". *)
  read_cost_us : float;
  write_cost_us : float;
  crc_cost_us : float;
  mutable simulated_us : float;
  mutable crc_us : float; (* share of simulated_us spent verifying CRCs *)
  mutable verify_reads : bool;
  mutable plan : fault_plan option;
  bad : (int, unit) Hashtbl.t; (* permanently failed pages *)
  zero_crc : int; (* CRC of an all-zero page, stored at allocation *)
  (* MVCC: the epoch clock plus per-page version chains.  A chain entry
     [(visible_until, crc, image)] is the image a page had before the
     update window ending at epoch [visible_until] overwrote it — a
     reader pinned at epoch [e] sees the oldest entry with
     [visible_until > e], or the live page when the chain has none.
     Chains are kept newest-first (descending [visible_until]). *)
  epoch : Epoch.t;
  versions : (int, (int * int * Page.t) list) Hashtbl.t;
  (* One device, many domains: [Dolx_exec] readers share the disk while
     holding private buffer pools, so the page store, the stats record
     and the fault machinery are serialized here.  Contention is low by
     construction — the pools absorb > 95% of touches, so the lock is
     taken only on real page I/O. *)
  m : Mutex.t;
}

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

let create ?(page_size = Page.default_size) ?(read_cost_us = 100.0)
    ?(write_cost_us = 120.0) ?(crc_cost_us = 2.0) ?(verify_reads = true) () =
  {
    page_size;
    pages = Array.make 16 (Page.create 0);
    crcs = Array.make 16 0;
    count = 0;
    stats = zero_stats ();
    folded = zero_stats ();
    folded_us = 0.0;
    folded_crc_us = 0.0;
    read_cost_us;
    write_cost_us;
    crc_cost_us;
    simulated_us = 0.0;
    crc_us = 0.0;
    verify_reads;
    plan = None;
    bad = Hashtbl.create 8;
    zero_crc = Crc.digest (Page.create page_size);
    epoch = Epoch.create ();
    versions = Hashtbl.create 16;
    m = Mutex.create ();
  }

let page_size t = t.page_size

let epoch t = t.epoch

let page_count t = t.count

let stats t = t.stats

let simulated_us t = t.simulated_us

let crc_us t = t.crc_us

let fold_locked t =
  let s = t.stats and f = t.folded in
  Metrics.add c_reads (s.reads - f.reads);
  Metrics.add c_writes (s.writes - f.writes);
  Metrics.add c_allocations (s.allocations - f.allocations);
  Metrics.add c_transient_faults (s.transient_faults - f.transient_faults);
  Metrics.add c_torn_writes (s.torn_writes - f.torn_writes);
  Metrics.add c_bit_flips (s.bit_flips - f.bit_flips);
  Metrics.add c_checksum_failures (s.checksum_failures - f.checksum_failures);
  Metrics.add c_versions_saved (s.versions_saved - f.versions_saved);
  Metrics.add c_versions_retired (s.versions_retired - f.versions_retired);
  Metrics.gauge_add g_simulated_us (t.simulated_us -. t.folded_us);
  Metrics.gauge_add g_crc_us (t.crc_us -. t.folded_crc_us);
  t.folded <- copy_stats s;
  t.folded_us <- t.simulated_us;
  t.folded_crc_us <- t.crc_us

let fold_metrics t = locked t (fun () -> fold_locked t)

(* Fold first, so the registry keeps every event; the lifetime fields
   (allocations, versions_saved, versions_retired) keep their values,
   and their marks already equal them. *)
let reset_stats t =
  locked t @@ fun () ->
  fold_locked t;
  let s = t.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.transient_faults <- 0;
  s.torn_writes <- 0;
  s.bit_flips <- 0;
  s.checksum_failures <- 0;
  t.folded <- copy_stats s;
  t.simulated_us <- 0.0;
  t.crc_us <- 0.0;
  t.folded_us <- 0.0;
  t.folded_crc_us <- 0.0

let set_fault_plan t plan = t.plan <- plan

let set_verify_reads t b = t.verify_reads <- b

let mark_bad t id =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "Disk.mark_bad: page %d out of range (page count %d)" id
         t.count);
  locked t (fun () -> Hashtbl.replace t.bad id ())

(** Undo {!mark_bad} / an injected bad page — the "sector remapped"
    event of a fault-injection schedule, letting tests exercise recovery
    after a write failure. *)
let clear_bad t id = locked t (fun () -> Hashtbl.remove t.bad id)

let is_bad t id = Hashtbl.mem t.bad id

(** Allocate a fresh zeroed page, returning its id. *)
let allocate t =
  locked t @@ fun () ->
  if t.count >= Array.length t.pages then begin
    let pages = Array.make (2 * Array.length t.pages) (Page.create 0) in
    Array.blit t.pages 0 pages 0 t.count;
    t.pages <- pages;
    let crcs = Array.make (Array.length pages) 0 in
    Array.blit t.crcs 0 crcs 0 t.count;
    t.crcs <- crcs
  end;
  let id = t.count in
  t.pages.(id) <- Page.create t.page_size;
  t.crcs.(id) <- t.zero_crc;
  t.count <- id + 1;
  t.stats.allocations <- t.stats.allocations + 1;
  id

let check t id op =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "Disk.%s: page %d out of range (page count %d)" op id
         t.count)

let draw plan p = p > 0.0 && Prng.bool plan.fault_prng ~p

let bad_page id =
  Metrics.incr c_bad_page_faults;
  raise (Fault { page = id; kind = Bad_page })

(* The image of [id] visible at epoch [e]: the oldest retained version
   with [visible_until > e], or the live page.  Chains are descending by
   [visible_until], so the scan stops at the first entry at or below [e]. *)
let version_at t id e =
  match Hashtbl.find_opt t.versions id with
  | None -> None
  | Some chain ->
      let rec oldest_above acc = function
        | (vu, crc, img) :: rest when vu > e ->
            oldest_above (Some (crc, img)) rest
        | _ -> acc
      in
      oldest_above None chain

(** Read page [id] into [dst] (a full-page buffer).  With [?epoch], read
    the image that was live at that (pinned) epoch: superseded images
    come from the version chain, still verified against the CRC they had
    when retained.
    @raise Fault on a bad page, an injected transient error, or a
    checksum mismatch between the stored bytes and the CRC recorded at
    write time (torn write or bit rot). *)
let read ?epoch t id dst =
  locked t @@ fun () ->
  check t id "read";
  t.stats.reads <- t.stats.reads + 1;
  t.simulated_us <- t.simulated_us +. t.read_cost_us;
  if Hashtbl.mem t.bad id then bad_page id;
  (match t.plan with
  | Some plan when draw plan plan.transient_read_p ->
      t.stats.transient_faults <- t.stats.transient_faults + 1;
      raise (Fault { page = id; kind = Transient_read })
  | _ -> ());
  let src, crc =
    match epoch with
    | None -> (t.pages.(id), t.crcs.(id))
    | Some e -> (
        match version_at t id e with
        | Some (crc, img) -> (img, crc)
        | None -> (t.pages.(id), t.crcs.(id)))
  in
  Bytes.blit src 0 dst 0 t.page_size;
  if t.verify_reads then begin
    t.simulated_us <- t.simulated_us +. t.crc_cost_us;
    t.crc_us <- t.crc_us +. t.crc_cost_us;
    if Crc.digest_sub dst ~pos:0 ~len:t.page_size <> crc then begin
      t.stats.checksum_failures <- t.stats.checksum_failures + 1;
      raise (Fault { page = id; kind = Checksum_mismatch })
    end
  end

(** Write [src] to page [id].  The CRC of the *intended* image is always
    recorded; an injected torn write or bit flip corrupts the stored
    bytes without touching it, so the damage is caught by the next
    verified read.
    @raise Fault when the page has gone permanently bad. *)
let write t id src =
  locked t @@ fun () ->
  check t id "write";
  t.stats.writes <- t.stats.writes + 1;
  t.simulated_us <- t.simulated_us +. t.write_cost_us;
  if Hashtbl.mem t.bad id then bad_page id;
  (* Copy-on-write: with readers pinned, retain the image being
     overwritten.  All writes of one update window share the tag
     [current + 1] (the epoch the update will publish as), so only the
     first overwrite of a page per window saves a copy. *)
  if Epoch.pinned t.epoch then begin
    let vu = Epoch.current t.epoch + 1 in
    let chain = Option.value (Hashtbl.find_opt t.versions id) ~default:[] in
    match chain with
    | (vu0, _, _) :: _ when vu0 = vu -> ()
    | _ ->
        Hashtbl.replace t.versions id
          ((vu, t.crcs.(id), Bytes.copy t.pages.(id)) :: chain);
        t.stats.versions_saved <- t.stats.versions_saved + 1;
        Metrics.gauge_add g_versions_live 1.0
  end;
  t.crcs.(id) <- Crc.digest_sub src ~pos:0 ~len:t.page_size;
  (match t.plan with
  | Some plan when draw plan plan.torn_write_p ->
      t.stats.torn_writes <- t.stats.torn_writes + 1;
      let keep = Prng.int plan.fault_prng t.page_size in
      Bytes.blit src 0 t.pages.(id) 0 keep
  | _ -> Bytes.blit src 0 t.pages.(id) 0 t.page_size);
  (match t.plan with
  | Some plan when draw plan plan.bit_flip_p ->
      t.stats.bit_flips <- t.stats.bit_flips + 1;
      let bit = Prng.int plan.fault_prng (t.page_size * 8) in
      let b = Bytes.get_uint8 t.pages.(id) (bit / 8) in
      Bytes.set_uint8 t.pages.(id) (bit / 8) (b lxor (1 lsl (bit mod 8)))
  | _ -> ());
  match t.plan with
  | Some plan when draw plan plan.bad_page_p -> Hashtbl.replace t.bad id ()
  | _ -> ()

(** Drop retained page versions that no reader can reach any more: a
    version whose [visible_until] is at or below the epoch horizon (the
    oldest pinned epoch, or the current epoch when nothing is pinned)
    has no possible reader left.  Returns the number of versions
    dropped. *)
let retire t =
  locked t @@ fun () ->
  let horizon = Epoch.horizon t.epoch in
  let updates =
    Hashtbl.fold
      (fun id chain acc ->
        let keep = List.filter (fun (vu, _, _) -> vu > horizon) chain in
        if List.length keep = List.length chain then acc
        else (id, keep, List.length chain - List.length keep) :: acc)
      t.versions []
  in
  let dropped = ref 0 in
  List.iter
    (fun (id, keep, n) ->
      dropped := !dropped + n;
      if keep = [] then Hashtbl.remove t.versions id
      else Hashtbl.replace t.versions id keep)
    updates;
  if !dropped > 0 then begin
    t.stats.versions_retired <- t.stats.versions_retired + !dropped;
    Metrics.gauge_add g_versions_live (-.float_of_int !dropped)
  end;
  !dropped

(** Number of page versions currently retained for pinned readers. *)
let live_versions t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ chain acc -> acc + List.length chain) t.versions 0
