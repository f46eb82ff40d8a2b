(** Per-subject access-run index — see the interface for the design.

    Concurrency: the table of materialized subjects is an immutable
    sorted array published through an [Atomic.t].  Lookups binary-search
    the snapshot with no lock; builds and evictions serialize on a
    mutex, re-check the snapshot, and publish a fresh array.  LRU
    recency is a per-entry [int Atomic.t] stamped from a global tick, so
    table probes on the lock-free path still update recency without
    contending on the mutex.  A handle's cursor holds the runs it last
    probed, so repeat lookups for one subject touch no shared state. *)

module Binsearch = Dolx_util.Binsearch
module Int_vec = Dolx_util.Int_vec
module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace

let c_builds = Metrics.counter "runs.builds"

let c_hits = Metrics.counter "runs.hits"

let c_evictions = Metrics.counter "runs.evictions"

let g_bytes = Metrics.gauge "runs.bytes"

let g_subjects = Metrics.gauge "runs.subjects"

type runs = {
  r_subject : int;
  r_generation : int;
  r_n : int;  (* n_nodes at build time *)
  starts : int array;  (* sorted run starts *)
  stops : int array;   (* parallel inclusive run ends; disjoint, maximal *)
  r_covered : int;     (* sum of run lengths *)
}

type entry = { e_runs : runs; e_used : int Atomic.t }

type t = {
  dol : Dol.t; (* the live DOL; snapshot readers pass their own *)
  deny : (int * int) array;  (* sorted disjoint inaccessible intervals *)
  cap : int;
  lock : Mutex.t;
  tick : int Atomic.t;
  (* Sorted by (subject, generation): entries for distinct generations
     coexist, so an epoch-pinned reader keeps hitting the runs built
     from its DOL snapshot while the live store fills in fresh ones;
     stale generations age out through the LRU. *)
  table : ((int * int) * entry) array Atomic.t;
  (* Boundary buffer of {!build}; guarded by [lock]. *)
  mutable scratch : int array;
}

let default_capacity = 64

let normalize_deny deny =
  let ranges =
    List.filter (fun (lo, hi) -> lo <= hi) deny
    |> List.sort compare
  in
  (* coalesce overlapping / adjacent intervals *)
  let rec merge = function
    | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge ((a, max b d) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  Array.of_list (merge ranges)

let create ?(capacity = default_capacity) ?(deny = []) dol =
  if capacity < 1 then invalid_arg "Access_runs.create: capacity < 1";
  {
    dol;
    deny = normalize_deny deny;
    cap = capacity;
    lock = Mutex.create ();
    tick = Atomic.make 0;
    table = Atomic.make [||];
    scratch = [||];
  }

let capacity t = t.cap

let materialized t = Array.length (Atomic.get t.table)

(** {1 Building} *)

(* Subtract the deny intervals from one candidate run [lo, hi], pushing
   the surviving pieces.  [di] is a monotone index into [deny]. *)
let push_minus_deny deny di starts stops lo hi =
  let nd = Array.length deny in
  let lo = ref lo in
  (* skip deny intervals entirely before the run *)
  while !di < nd && snd deny.(!di) < !lo do incr di done;
  let j = ref !di in
  while !lo <= hi do
    if !j >= nd || fst deny.(!j) > hi then begin
      Int_vec.push starts !lo;
      Int_vec.push stops hi;
      lo := hi + 1
    end
    else begin
      let dlo, dhi = deny.(!j) in
      if dlo > !lo then begin
        Int_vec.push starts !lo;
        Int_vec.push stops (dlo - 1)
      end;
      lo := dhi + 1;
      incr j
    end
  done

(* Subtract the sorted disjoint [deny] intervals from sorted disjoint
   runs. *)
let subtract_deny deny starts stops =
  let s = Int_vec.create () and e = Int_vec.create () in
  let di = ref 0 in
  Array.iteri (fun j lo -> push_minus_deny deny di s e lo stops.(j)) starts;
  (Int_vec.to_array s, Int_vec.to_array e)

(* Transitions per block of the boundary pass: before each block the
   scratch is grown to hold one more boundary per transition, so the
   inner loop stores without a capacity check while the scratch itself
   tracks the boundary count, not the transition count. *)
let block = 4096

let reserve t need =
  let len = Array.length t.scratch in
  if len < need then begin
    let s = Array.make (max need (2 * len)) 0 in
    Array.blit t.scratch 0 s 0 len;
    t.scratch <- s
  end

(* The boundary pass over transitions [i, stop).  Each transition's
   preorder is stored at [scratch.(m)] unconditionally and [m] advances
   by [verdict lxor previous verdict], so the scratch keeps exactly the
   preorders where the subject's accessibility flips, with no branch on
   the verdict.  [m] counts the flips so far, hence [m land 1] is the
   previous verdict.  Stops early at a code past [column]; returns where
   it stopped and the new [m].  No call inside, so the loop state stays
   in registers. *)
let scan_flips (codes : int array) (pres : int array) column
    (scratch : int array) i stop m =
  let len = Bytes.length column in
  let i = ref i and m = ref m and prev = ref (m land 1) in
  while
    !i < stop && (let c = Array.unsafe_get codes !i in c >= 0 && c < len)
  do
    let b = Char.code (Bytes.unsafe_get column (Array.unsafe_get codes !i)) in
    Array.unsafe_set scratch !m (Array.unsafe_get pres !i);
    m := !m + (b lxor !prev);
    prev := b;
    incr i
  done;
  (!i, !m)

(* Materialize [subject]'s accessible runs from [dol] at generation
   [gen], under [t.lock] (which also guards [t.scratch]): one pass over
   the transitions reading each verdict as a byte of the subject's
   codebook column.  The flips alternate run starts and exclusive run
   ends; the quarantine's deny intervals are subtracted from the
   paired runs. *)
let build t dol subject gen =
  Trace.with_span "runs.build" @@ fun () ->
  let cb = Dol.codebook dol in
  let pres = dol.Dol.trans_pre and codes = dol.Dol.trans_code in
  let k = Array.length pres in
  if Array.length codes <> k then invalid_arg "Access_runs.build: ragged DOL";
  let n = Dol.n_nodes dol in
  let col = ref (Codebook.column cb subject) in
  let m = ref 0 and i = ref 0 in
  while !i < k do
    let stop = if k - !i > block then !i + block else k in
    reserve t (!m + (stop - !i));
    let i', m' = scan_flips codes pres !col t.scratch !i stop !m in
    i := i';
    m := m';
    if i' < stop then begin
      (* a code interned since the column was fetched: [grants] raises
         on an unknown code, otherwise re-fetch the extended column *)
      ignore (Codebook.grants cb codes.(i') subject);
      col := Codebook.column cb subject
    end
  done;
  (* close a trailing run at [n - 1] *)
  let m = !m in
  reserve t (m + 1);
  let scratch = t.scratch in
  scratch.(m) <- n;
  let r = (m + 1) / 2 in
  let starts = Array.init r (fun j -> scratch.(2 * j)) in
  let stops = Array.init r (fun j -> scratch.((2 * j) + 1) - 1) in
  let starts, stops =
    if Array.length t.deny = 0 then (starts, stops)
    else subtract_deny t.deny starts stops
  in
  let covered = ref 0 in
  for j = 0 to Array.length starts - 1 do
    covered := !covered + stops.(j) - starts.(j) + 1
  done;
  Metrics.incr c_builds;
  {
    r_subject = subject;
    r_generation = gen;
    r_n = n;
    starts;
    stops;
    r_covered = !covered;
  }

(** {1 Table} *)

(* Binary search of the table for ([subject], [gen]): the entry, or
   [None]. *)
let lookup table subject gen =
  let lo = ref 0 and hi = ref (Array.length table - 1) in
  let res = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let (s, g), e = table.(mid) in
    let c = if s <> subject then compare (s : int) subject else compare (g : int) gen in
    if c = 0 then begin
      res := Some e;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let touch t e = Atomic.set e.e_used (Atomic.fetch_and_add t.tick 1)

let bytes r = (2 * 8 * Array.length r.starts) + 48

let total_bytes t =
  Array.fold_left (fun acc (_, e) -> acc + bytes e.e_runs) 0 (Atomic.get t.table)

let iter_materialized f t =
  Array.iter (fun ((s, _), e) -> f s e.e_runs) (Atomic.get t.table)

let publish_gauges t =
  Metrics.gauge_set g_bytes (float_of_int (total_bytes t));
  Metrics.gauge_set g_subjects (float_of_int (materialized t))

(* Under [t.lock]: insert/replace [key]'s entry, evicting the least
   recently used other entries when over capacity. *)
let install t key e =
  let old = Atomic.get t.table in
  let others = Array.of_list (List.filter (fun (k, _) -> k <> key) (Array.to_list old)) in
  let others =
    if Array.length others >= t.cap then begin
      (* evict the least recently used until one slot is free *)
      let victims = Array.length others - t.cap + 1 in
      let by_use = Array.copy others in
      Array.sort
        (fun (_, a) (_, b) -> compare (Atomic.get a.e_used) (Atomic.get b.e_used))
        by_use;
      let evicted = Array.sub by_use 0 victims in
      Metrics.add c_evictions victims;
      Array.of_list
        (List.filter
           (fun (k, _) -> not (Array.exists (fun (v, _) -> v = k) evicted))
           (Array.to_list others))
    end
    else others
  in
  let table = Array.append others [| (key, e) |] in
  Array.sort (fun (a, _) (b, _) -> compare a b) table;
  Atomic.set t.table table;
  publish_gauges t

(** {1 Cursors} *)

(* A handle's view of the index: [held] is the last answer of
   {!runs_for}, [cr]/[ci] the runs and run position {!accessible} scans,
   and [hits] the answers that were not builds, folded into [runs.hits]
   by {!fold_metrics}. *)
type cursor = {
  mutable held : runs option;
  mutable cr : runs option;
  mutable ci : int;
  mutable hits : int;
  mutable folded_hits : int;
}

let cursor () = { held = None; cr = None; ci = 0; hits = 0; folded_hits = 0 }

let fold_metrics cu =
  Metrics.add c_hits (cu.hits - cu.folded_hits);
  cu.folded_hits <- cu.hits

(* The table's runs for [subject] at [gen], built under the lock when
   absent; a hit refreshes the entry's recency. *)
let resolve t cu dol subject gen =
  if subject < 0 then invalid_arg "Access_runs.runs: negative subject";
  match lookup (Atomic.get t.table) subject gen with
  | Some e ->
      cu.hits <- cu.hits + 1;
      touch t e;
      e.e_runs
  | None ->
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          (* re-check: another domain may have built while we waited *)
          match lookup (Atomic.get t.table) subject gen with
          | Some e ->
              cu.hits <- cu.hits + 1;
              touch t e;
              e.e_runs
          | None ->
              let r = build t dol subject gen in
              let e = { e_runs = r; e_used = Atomic.make 0 } in
              touch t e;
              install t (subject, gen) e;
              r)

let is_for r subject gen = r.r_subject = subject && r.r_generation = gen

(** Materialized runs for [subject] as seen by [dol] — the live DOL for
    the writer, a pinned snapshot for an epoch reader.  [dol] must share
    the store's subject population history (its generation identifies
    the policy state the runs were built from).  A repeat of the
    cursor's last answer is a hit without a table probe. *)
let runs_for t cu ~dol ~subject =
  let gen = Dol.generation dol in
  match cu.held with
  | Some r when is_for r subject gen ->
      cu.hits <- cu.hits + 1;
      r
  | _ ->
      let r = resolve t cu dol subject gen in
      cu.held <- Some r;
      r

let runs t ~subject =
  let cu = cursor () in
  let r = runs_for t cu ~dol:t.dol ~subject in
  fold_metrics cu;
  r

(** {1 Queries} *)

let run_count r = Array.length r.starts

let covered r = r.r_covered

let accessible_fraction r =
  if r.r_n = 0 then 0.0 else float_of_int r.r_covered /. float_of_int r.r_n

(* Least run index [i] with [stops.(i) >= v], or [length] when none.
   [hint] makes monotone scans O(1) amortized: try a few linear steps
   from the hint before binary-searching. *)
let seek r hint v =
  let stops = r.stops in
  let len = Array.length stops in
  let bin () = match Binsearch.successor stops v with Some j -> j | None -> len in
  if len = 0 then 0
  else if hint >= 0 && hint <= len
          && (hint = len || stops.(hint) >= v)
          && (hint = 0 || stops.(hint - 1) < v) then hint
  else if hint >= 0 && hint < len && stops.(hint) < v then begin
    let i = ref (hint + 1) in
    let steps = ref 0 in
    while !i < len && stops.(!i) < v && !steps < 8 do incr i; incr steps done;
    if !i < len && stops.(!i) < v then bin () else !i
  end
  else bin ()

let mem r v =
  let i = seek r (-1) v in
  i < Array.length r.starts && r.starts.(i) <= v

let next_accessible r v =
  let i = seek r (-1) v in
  if i >= Array.length r.starts then None else Some (max v r.starts.(i))

let span_inside r ~lo ~hi =
  lo > hi
  ||
  let i = seek r (-1) lo in
  i < Array.length r.starts && r.starts.(i) <= lo && r.stops.(i) >= hi

let intersect r xs =
  let len = Array.length r.starts in
  if len = 0 then []
  else begin
    let i = ref 0 in
    List.filter
      (fun v ->
        i := seek r !i v;
        !i < len && r.starts.(!i) <= v)
      xs
  end

let accessible t cu ~dol ~subject v =
  let r =
    match cu.cr with
    | Some r when is_for r subject (Dol.generation dol) -> r
    | _ ->
        let r = runs_for t cu ~dol ~subject in
        cu.cr <- Some r;
        cu.ci <- 0;
        r
  in
  let i = seek r cu.ci v in
  cu.ci <- i;
  i < Array.length r.starts && r.starts.(i) <= v

let pp_runs ppf r =
  Format.fprintf ppf "subject %d: %d runs covering %d/%d nodes (%d B, gen %d)"
    r.r_subject (run_count r) r.r_covered r.r_n (bytes r) r.r_generation
