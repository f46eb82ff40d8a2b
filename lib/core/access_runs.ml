(** Per-subject access-run index — see the interface for the design.

    Concurrency: a table is one [runs option Atomic.t] cell per subject.
    A hit is an array index and an [Atomic.get]; a miss builds under the
    mutex that every table of one store family shares, re-checks the
    cell first, and publishes with [Atomic.set].  A cell is filled once
    and never cleared: a new policy state gets a new table, which shares
    the cells of the subjects whose verdicts did not change.  A handle's
    cursor holds the list it last probed, so repeat lookups for one
    subject touch no shared state. *)

module Int_vec = Dolx_util.Int_vec
module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace

let c_builds = Metrics.counter "runs.builds"

let c_hits = Metrics.counter "runs.hits"

let g_bytes = Metrics.gauge "runs.bytes"

let g_subjects = Metrics.gauge "runs.subjects"

(* The flips of one subject, in blocks of 2^16 preorders: flip [j] is
   [(b lsl 16) lor u16 j] where [dir.(b) <= j < dir.(b + 1)].  The
   directory has one entry per block plus a last one, the flip count. *)
type runs = {
  r_n : int;  (* n_nodes at build time *)
  flips : Bytes.t;  (* low 16 bits of each flip, native-endian u16 *)
  dir : int array;  (* dir.(b): index of the first flip >= b lsl 16 *)
  r_covered : int;  (* nodes inside accessible runs *)
}

type t = {
  dol : Dol.t;  (* the state the table answers for *)
  generation : int;
  allow : int array;  (* flips of the nodes no deny range covers *)
  lock : Mutex.t;  (* serializes builds; shared along {!next} *)
  cells : runs option Atomic.t array;  (* one per subject *)
}

(* The flips of the complement of the [deny] ranges: accessible from 0
   unless a range starts there. *)
let allow_flips deny =
  let ranges =
    List.filter (fun (lo, hi) -> lo <= hi) deny
    |> List.sort compare
  in
  (* coalesce overlapping / adjacent intervals, so flips never repeat *)
  let rec merge = function
    | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge ((a, max b d) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  let flips = List.concat_map (fun (lo, hi) -> [ lo; hi + 1 ]) (merge ranges) in
  Array.of_list (match flips with 0 :: rest -> rest | fs -> 0 :: fs)

let empty_cells dol =
  Array.init (Codebook.width (Dol.codebook dol)) (fun _ -> Atomic.make None)

let create ?(deny = []) dol =
  {
    dol;
    generation = Dol.generation dol;
    allow = allow_flips deny;
    lock = Mutex.create ();
    cells = empty_cells dol;
  }

let next ?only t dol =
  let cells =
    match only with
    | Some s
      when s >= 0 && s < Array.length t.cells
           && Codebook.width (Dol.codebook dol) = Array.length t.cells ->
        Array.mapi (fun i c -> if i = s then Atomic.make None else c) t.cells
    | _ -> empty_cells dol
  in
  { t with dol; generation = Dol.generation dol; cells }

let generation t = t.generation

(** {1 Flip lists} *)

let count r = r.dir.(Array.length r.dir - 1)

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* The low 16 bits of flip [j]; callers keep [0 <= j < count r]. *)
let u16 r j = get16u r.flips (2 * j)

(* The preorder of flip [j] ([0 <= j < count r]), searching its block
   from block [b]; the directory's first entry is 0 and its last the
   count, so both loops stop inside it. *)
let value r b j =
  let dir = r.dir in
  let b = ref (Int.min b (Array.length dir - 2)) in
  while Array.unsafe_get dir !b > j do decr b done;
  while Array.unsafe_get dir (!b + 1) <= j do incr b done;
  (!b lsl 16) lor u16 r j

(* The first index in [\[lo, hi)] whose low bits exceed [low], or [hi];
   every flip before [lo] must be [<= low]'s preorder. *)
let search r lo hi low =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if u16 r mid <= low then lo := mid + 1 else hi := mid
  done;
  !lo

(* The first index in [\[lo, hi)] whose low bits exceed [low], or [hi],
   galloping up from [lo] in steps from [step]: cheap when the answer
   is near [lo].  Every flip before [lo] must be [<= low]'s
   preorder. *)
let rec gallop r lo hi low step =
  let probe = lo + step - 1 in
  if probe >= hi then search r lo hi low
  else if u16 r probe <= low then gallop r (probe + 1) hi low (2 * step)
  else search r lo probe low

(* {!gallop} downward: the first index in [\[lo, hi)] whose low bits
   exceed [low], or [hi], probing down from [hi] in steps from [step].
   Every flip before [lo] must be [<= low]'s preorder, and every flip
   from [hi] on above it. *)
let rec gallop_down r lo hi low step =
  let probe = hi - step in
  if probe < lo then search r lo hi low
  else if u16 r probe > low then gallop_down r lo probe low (2 * step)
  else search r (probe + 1) hi low

(* Pack sorted flips [f] over [n] nodes. *)
let encode n (f : Int_vec.t) =
  let m = Int_vec.length f in
  let blocks = Int.max 1 ((n + 0xffff) lsr 16) in
  let flips = Bytes.create (2 * m) in
  let dir = Array.make (blocks + 1) m in
  dir.(0) <- 0;
  let b = ref 0 and covered = ref 0 in
  for j = 0 to m - 1 do
    let v = Int_vec.get f j in
    while v lsr 16 > !b do
      incr b;
      dir.(!b) <- j
    done;
    Bytes.set_uint16_ne flips (2 * j) (v land 0xffff);
    (* a run start counts negatively, the preorder past it positively *)
    covered := if j land 1 = 0 then !covered - v else !covered + v
  done;
  if m land 1 = 1 then covered := !covered + n;
  { r_n = n; flips; dir; r_covered = !covered }

(* The flips, below [n], of the nodes accessible in both flip lists
   [f] and [g]: a merge emitting each preorder where the conjunction of
   their parities changes. *)
let inter n f g =
  let out = Int_vec.create () in
  let nf = Int_vec.length f and ng = Array.length g in
  let i = ref 0 and j = ref 0 in
  let next () =
    Int.min (if !i < nf then Int_vec.get f !i else n) (if !j < ng then g.(!j) else n)
  in
  let p = ref (next ()) in
  while !p < n do
    if !i < nf && Int_vec.get f !i = !p then incr i;
    if !j < ng && g.(!j) = !p then incr j;
    if (!i land !j land 1 = 1) <> (Int_vec.length out land 1 = 1) then
      Int_vec.push out !p;
    p := next ()
  done;
  out

(* [subject]'s flip list under [dol]: one pass over the transitions,
   reading each verdict straight from the codebook matrix, keeping the
   preorders where the verdict changes; the deny ranges are then taken
   out.  Nothing is cached in the codebook. *)
let build t dol subject =
  Trace.with_span "runs.build" @@ fun () ->
  let cb = Dol.codebook dol in
  if subject >= Codebook.width cb then
    invalid_arg "Access_runs.runs: unknown subject";
  let pres = dol.Dol.trans_pre and codes = dol.Dol.trans_code in
  if Array.length codes <> Array.length pres then
    invalid_arg "Access_runs.build: ragged DOL";
  let n = Dol.n_nodes dol in
  let f = Int_vec.create () in
  Codebook.iter_changes cb subject codes (fun i -> Int_vec.push f pres.(i));
  Metrics.incr c_builds;
  encode n (inter n f t.allow)

let bytes r = Bytes.length r.flips + (8 * Array.length r.dir) + 48

let fold_cells f acc t =
  Array.fold_left
    (fun acc c -> match Atomic.get c with Some r -> f acc r | None -> acc)
    acc t.cells

let resident t = fold_cells (fun a _ -> a + 1) 0 t

let total_bytes t = fold_cells (fun a r -> a + bytes r) 0 t

(** {1 Walks} *)

(* A stretch of preorders sharing one verdict, filled by {!locate}.
   Declared before [walk], whose [lo] / [hi] the code below means. *)
type segment = { mutable lo : int; mutable hi : int; mutable ok : bool }

let segment () = { lo = 0; hi = 0; ok = false }

(* A position on one flip list: every preorder of [\[lo, hi)] has
   [rank] flips at or before it, and [hi] is flip [rank] itself
   ([max_int] past the last flip).  [v] is accessible iff its rank is
   odd. *)
type walk = {
  mutable w_runs : runs;
  mutable lo : int;
  mutable hi : int;
  mutable rank : int;
}

(* Point [w] at the segment before the first flip. *)
let rewind w r =
  w.w_runs <- r;
  w.rank <- 0;
  w.lo <- min_int;
  w.hi <- (if count r = 0 then max_int else value r 0 0)

let walk r =
  let w = { w_runs = r; lo = 0; hi = 0; rank = 0 } in
  rewind w r;
  w

(* Point [w] at [v]'s segment: nothing is searched inside the current
   one; forward of it the search gallops up from the current rank, and
   behind it down from there.  Either way the search stays inside [v]'s
   block: the flips before it are all below [v], and flip [rank] and
   the flips after it above. *)
let seek w v =
  if v < w.lo || v >= w.hi then begin
    let r = w.w_runs in
    let dir = r.dir in
    let b = v lsr 16 in
    if v < 0 then rewind w r
    else if b >= Array.length dir - 1 then begin
      (* past the last block: every flip is below [v] *)
      w.rank <- count r;
      w.lo <- (Array.length dir - 1) lsl 16;
      w.hi <- max_int
    end
    else begin
      let first = dir.(b) and stop = dir.(b + 1) and low = v land 0xffff in
      (* forward, flip [rank] is [hi <= v] and lies in a block [<= b] *)
      let i =
        if v >= w.hi then gallop r (Int.max (w.rank + 1) first) stop low 1
        else gallop_down r first (Int.min w.rank stop) low 1
      in
      w.rank <- i;
      (* flip [i - 1], so the segment is maximal: with none in [v]'s
         block it lies in an earlier one *)
      w.lo <-
        (if i > first then (b lsl 16) lor u16 r (i - 1)
         else if i = 0 then min_int
         else value r b (i - 1));
      w.hi <-
        (if i < stop then (b lsl 16) lor u16 r i
         else if i = count r then max_int
         else value r (b + 1) i)
    end
  end

let mem w v =
  seek w v;
  w.rank land 1 = 1

let locate w v (s : segment) =
  seek w v;
  s.lo <- Int.max 0 w.lo;
  s.hi <- Int.min w.w_runs.r_n w.hi;
  s.ok <- w.rank land 1 = 1

(** {1 Cursors} *)

(* A handle's view of the index: [pos] walks the last answer of
   {!runs_for}, for ([h_subject], [h_gen]).  [hits] counts the answers
   that were not builds, folded into [runs.hits] by {!fold_metrics}. *)
type cursor = {
  pos : walk;
  mutable h_subject : int;
  mutable h_gen : int;
  mutable hits : int;
  mutable folded_hits : int;
}

let no_runs = { r_n = 0; flips = Bytes.empty; dir = [| 0; 0 |]; r_covered = 0 }

let cursor () =
  { pos = walk no_runs; h_subject = -1; h_gen = 0; hits = 0; folded_hits = 0 }

let fold_metrics cu =
  Metrics.add c_hits (cu.hits - cu.folded_hits);
  cu.folded_hits <- cu.hits

let publish_gauges t =
  Metrics.gauge_set g_bytes (float_of_int (total_bytes t));
  Metrics.gauge_set g_subjects (float_of_int (resident t))

(* [subject]'s list at [gen]: the cell when [gen] is the table's,
   otherwise an uncached build. *)
let resolve t cu dol subject gen =
  if subject < 0 then invalid_arg "Access_runs.runs: negative subject";
  if gen <> t.generation || subject >= Array.length t.cells then
    build t dol subject
  else
    let cell = t.cells.(subject) in
    match Atomic.get cell with
    | Some r ->
        cu.hits <- cu.hits + 1;
        r
    | None ->
        Mutex.protect t.lock (fun () ->
            (* re-check: another domain may have built while we waited *)
            match Atomic.get cell with
            | Some r ->
                cu.hits <- cu.hits + 1;
                r
            | None ->
                let r = build t dol subject in
                Atomic.set cell (Some r);
                publish_gauges t;
                r)

let runs_for t cu ~dol ~subject =
  let gen = Dol.generation dol in
  if cu.h_subject = subject && cu.h_gen = gen then begin
    cu.hits <- cu.hits + 1;
    cu.pos.w_runs
  end
  else begin
    let r = resolve t cu dol subject gen in
    rewind cu.pos r;
    cu.h_subject <- subject;
    cu.h_gen <- gen;
    r
  end

let walk_for t cu ~dol ~subject =
  if not (cu.h_subject = subject && cu.h_gen = dol.Dol.generation) then
    ignore (runs_for t cu ~dol ~subject);
  cu.pos

let runs t ~subject =
  let cu = cursor () in
  let r = runs_for t cu ~dol:t.dol ~subject in
  fold_metrics cu;
  r

(** {1 Statistics} *)

let run_count r = (count r + 1) / 2

let covered r = r.r_covered

let accessible_fraction r =
  if r.r_n = 0 then 0.0 else float_of_int r.r_covered /. float_of_int r.r_n

let of_flips ~n flips =
  Array.iteri
    (fun j v ->
      if v < 0 || v >= n || (j > 0 && v <= flips.(j - 1)) then
        invalid_arg "Access_runs.of_flips: flips must ascend inside [0, n)")
    flips;
  encode n (Int_vec.of_array flips)
