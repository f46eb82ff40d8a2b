(** Block-oriented NoK storage with embedded access-control codes.

    This is the paper's §3 physical representation.  The document
    structure is "encoded by listing the nodes in document order, with
    embedded markup to indicate where subtrees begin and end" (§3.1) —
    open parens are elided, so each node record carries its tag and the
    number of close-parens that follow it.  DOL transition nodes are
    "embedded into the NoK structural data" (§3.2): a record optionally
    carries an access-control code.

    Per-page layout:
    {v
      header (15 bytes):
        u16  number of node records
        u32  preorder of the first node
        u32  access-control code in force at the first node
        u16  depth of the first node          (NoK meta-data)
        u8   flags: bit0 = change bit (§3.2)
        u16  bytes used by records
      records, one per node, in document order:
        u8     flags: bit0 = carries an access-control code
        varint tag id
        varint close-paren count after this node
        varint code                            (only if flags bit0)
    v}

    "In the physical encoding, we treat the first node in each block as if
    it were a transition node, regardless of whether it is actually a
    transition node.  The access control code for this initial transition
    node is stored in the block header" (§3.2) — hence the first record of
    a page never carries an inline code.

    "For each disk block, there is a small access control header … By
    keeping all the page headers in memory … the NoK query processor can
    implement I/O optimizations" (§3.2): the in-memory page table below
    holds, per logical page, the first preorder, first code, change bit
    and first depth, and is consulted without any I/O.

    MVCC: the whole in-memory page table lives in one immutable {!view}
    record.  Updates never mutate a published view — {!rewrite_page}
    builds fresh arrays and swaps the [view] pointer — so a {!freeze}-d
    snapshot handle keeps reading a consistent table while the live
    layout moves on (its page {e images} come from the disk's version
    chains via an epoch-pinned buffer pool). *)

module Tree = Dolx_xml.Tree
module Varint = Dolx_util.Varint
module Binsearch = Dolx_util.Binsearch

let header_bytes = 15

type header = {
  first_pre : int;
  first_code : int;
  change : bool; (* a transition node other than the initial one is present *)
  first_depth : int;
}

(* Scan cursor for [code_in_force]: NoK evaluation visits nodes in
   near-document order, so the code in force is maintained incrementally
   instead of replaying the page from its start on every ACCESS check —
   this is what makes the check effectively free, as the paper's
   evaluator has the page cursor positioned already.

   Cursors are separate values so every reader handle (each domain of a
   parallel run) advances its own; [cur_gen] snapshots the layout's
   rewrite generation, so a cursor left pointing into a page that was
   since rewritten self-invalidates instead of misreading. *)
type cursor = {
  mutable cur_lp : int;   (* logical page the cursor is on, -1 = invalid *)
  mutable cur_pre : int;  (* last preorder processed *)
  mutable cur_pos : int;  (* byte offset of the record after cur_pre *)
  mutable cur_code : int; (* code in force at cur_pre *)
  mutable cur_gen : int;  (* layout generation the position is valid for *)
}

(* The complete in-memory page table as one immutable value: readers
   load [t.view] once per operation and see a consistent table even
   while the writer swaps in a successor. *)
type view = {
  phys : int array;        (* logical page -> physical disk page *)
  first_pres : int array;  (* in-memory page table, logical order *)
  first_codes : int array;
  changes : bool array;
  first_depths : int array;
  n_pages : int;
  vgen : int; (* bumped by every page rewrite; stamps cursors *)
}

type t = {
  disk : Disk.t;
  mutable view : view;
  frozen : bool; (* a snapshot handle: all mutation entry points raise *)
  n_nodes : int;
  own_cursor : cursor; (* default cursor for single-handle use *)
  (* Update tracking for journaled persistence: which logical pages were
     rewritten in place since the last [drain_dirty], and whether a page
     split renumbered the logical order (invalidating recorded ids). *)
  dirty : (int, unit) Hashtbl.t;
  mutable renumbered : bool;
}

let fresh_cursor () =
  { cur_lp = -1; cur_pre = -1; cur_pos = 0; cur_code = 0; cur_gen = 0 }

(** A fresh, unpositioned cursor for [t] — one per reader handle. *)
let cursor (_ : t) = fresh_cursor ()

type record = {
  pre : int;
  tag : int;
  closes : int;
  code : int option; (* inline transition code, never on the first record *)
}

let page_count t = t.view.n_pages

let node_count t = t.n_nodes

let disk t = t.disk

(** A snapshot handle over the current page table: shares the disk but
    never observes later {!rewrite_page}s (the live layout swaps in a
    fresh view instead of mutating this one).  Mutating a frozen handle
    raises [Invalid_argument].  Pair it with an epoch-pinned
    {!Buffer_pool} so the page images match the table. *)
let freeze t =
  {
    t with
    frozen = true;
    own_cursor = fresh_cursor ();
    dirty = Hashtbl.create 1;
    renumbered = false;
  }

let frozen t = t.frozen

(** In-memory header of logical page [lp] — no I/O. *)
let header t lp =
  let vw = t.view in
  if lp < 0 || lp >= vw.n_pages then invalid_arg "Nok_layout.header";
  {
    first_pre = vw.first_pres.(lp);
    first_code = vw.first_codes.(lp);
    change = vw.changes.(lp);
    first_depth = vw.first_depths.(lp);
  }

(** Logical page holding preorder [pre] — binary search of the in-memory
    page table, no I/O. *)
(* [page_of] against one loaded view, so callers read a consistent
   table. *)
let page_in t vw pre =
  if pre < 0 || pre >= t.n_nodes then invalid_arg "Nok_layout.page_of";
  match Binsearch.predecessor vw.first_pres pre with
  | Some lp -> lp
  | None -> assert false

let page_of t pre = page_in t t.view pre

let physical_page t lp = t.view.phys.(lp)

(** {1 Page encoding} *)

let record_bytes r =
  1
  + Varint.encoded_length r.tag
  + Varint.encoded_length r.closes
  + match r.code with Some c -> Varint.encoded_length c | None -> 0

(* The one page encoder: header [h] and [records] into a fresh image. *)
let encode page_size h records =
  let page = Page.create page_size in
  Page.set_u16 page 0 (List.length records);
  Page.set_u32 page 2 h.first_pre;
  Page.set_u32 page 6 h.first_code;
  Page.set_u16 page 10 h.first_depth;
  Page.set_u8 page 12 (if h.change then 1 else 0);
  let pos = ref header_bytes in
  List.iter
    (fun r ->
      let flags = match r.code with Some _ -> 1 | None -> 0 in
      Bytes.set_uint8 page !pos flags;
      incr pos;
      pos := Varint.write page !pos r.tag;
      pos := Varint.write page !pos r.closes;
      match r.code with Some c -> pos := Varint.write page !pos c | None -> ())
    records;
  Page.set_u16 page 13 (!pos - header_bytes);
  page

(** Header of a raw page image. *)
let image_header page =
  {
    first_pre = Page.get_u32 page 2;
    first_code = Page.get_u32 page 6;
    change = Page.get_u8 page 12 land 1 <> 0;
    first_depth = Page.get_u16 page 10;
  }

(** Decode all records of a raw page image (no pool, no layout). *)
let decode_image page =
  let n = Page.get_u16 page 0 in
  let first_pre = Page.get_u32 page 2 in
  let pos = ref header_bytes in
  List.init n (fun i ->
      let flags = Bytes.get_uint8 page !pos in
      incr pos;
      let tag, p = Varint.read page !pos in
      pos := p;
      let closes, p = Varint.read page !pos in
      pos := p;
      let code =
        if flags land 1 <> 0 then begin
          let c, p = Varint.read page !pos in
          pos := p;
          Some c
        end
        else None
      in
      { pre = first_pre + i; tag; closes; code })

(** {1 Packing}

    The one page-break policy: records go in document order until the
    next one would pass the fill budget; a page's first record keeps its
    code in the header; the change bit is set when a later record
    carries a code.  The packer tracks the code in force and the depth
    itself, so a driver feeds it only tag, close count and transition
    code. *)

type packer = {
  page_size : int;
  budget : int;
  emit : header -> Page.t -> unit;
  mutable recs : record list; (* the open page, newest first *)
  mutable used : int; (* header + record bytes of the open page *)
  mutable head : header; (* the open page's header, change bit aside *)
  mutable changed : bool; (* a later record of the open page has a code *)
  mutable next_pre : int;
  mutable depth : int; (* open elements before the next record *)
  mutable code_now : int option; (* code in force after the last record *)
}

let packer ~page_size ~fill ~pre ~depth emit =
  if fill <= 0.0 || fill > 1.0 then invalid_arg "Nok_layout.packer: fill";
  if page_size < 64 then invalid_arg "Nok_layout.packer: page size must be >= 64";
  let budget =
    min page_size
      (max (header_bytes + 16) (int_of_float (float_of_int page_size *. fill)))
  in
  {
    page_size;
    budget;
    emit;
    recs = [];
    used = header_bytes;
    head = { first_pre = pre; first_code = 0; change = false; first_depth = depth };
    changed = false;
    next_pre = pre;
    depth;
    code_now = None;
  }

let flush p =
  if p.recs <> [] then begin
    let h = { p.head with change = p.changed } in
    p.emit h (encode p.page_size h (List.rev p.recs));
    p.recs <- [];
    p.used <- header_bytes;
    p.changed <- false
  end

let pack p ~tag ~closes code =
  let pre = p.next_pre in
  if pre > 0 && p.depth < 1 then
    invalid_arg "Nok_layout: more than one top-level element";
  if code <> None then p.code_now <- code;
  let r = { pre; tag; closes; code } in
  let rb = record_bytes r in
  if p.recs <> [] && p.used + rb <= p.budget then begin
    p.recs <- r :: p.recs;
    p.used <- p.used + rb;
    if code <> None then p.changed <- true
  end
  else begin
    let first_code =
      match p.code_now with
      | Some c -> c
      | None -> invalid_arg "Nok_layout: the first node carries no access-control code"
    in
    flush p;
    let r = { r with code = None } in
    p.recs <- [ r ];
    p.used <- header_bytes + record_bytes r;
    p.head <- { first_pre = pre; first_code; change = false; first_depth = p.depth }
  end;
  p.next_pre <- pre + 1;
  p.depth <- p.depth + 1 - closes

(** {1 Building} *)

(* A layout over [pages], (physical id, header) in logical order. *)
let of_table disk ~n_nodes pages =
  let field f = Array.map (fun (_, h) -> f h) pages in
  {
    disk;
    view =
      {
        phys = Array.map fst pages;
        first_pres = field (fun h -> h.first_pre);
        first_codes = field (fun h -> h.first_code);
        changes = field (fun h -> h.change);
        first_depths = field (fun h -> h.first_depth);
        n_pages = Array.length pages;
        vgen = 0;
      };
    frozen = false;
    n_nodes;
    own_cursor = fresh_cursor ();
    dirty = Hashtbl.create 8;
    renumbered = false;
  }

(* A packer that writes each page to [disk] and collects the page
   table; [finish] flushes it and returns the layout. *)
let writer ?(fill = 0.9) disk =
  let pages = ref [] (* (physical id, header), newest first *) in
  let p =
    packer ~page_size:(Disk.page_size disk) ~fill ~pre:0 ~depth:0 (fun h page ->
        let pid = Disk.allocate disk in
        Disk.write disk pid page;
        pages := (pid, h) :: !pages)
  in
  let finish () =
    flush p;
    if p.next_pre = 0 || p.depth <> 0 then
      invalid_arg "Nok_layout: the document is empty or not closed";
    of_table disk ~n_nodes:p.next_pre (Array.of_list (List.rev !pages))
  in
  (p, finish)

(** Lay the document out on [disk] in document order.

    [trans_pre] and [trans_code] are the DOL's parallel transition
    arrays, sorted preorders with the root at index 0 (see
    [Dolx_core.Dol]); one index steps through them alongside the
    preorder walk.  [fill] bounds the fraction of each page used at
    build time, leaving slack so that accessibility updates that add a
    transition code usually fit in place. *)
let build ?fill disk tree ~trans_pre ~trans_code =
  let n_trans = Array.length trans_pre in
  if Array.length trans_code <> n_trans then
    invalid_arg "Nok_layout.build: transition arrays differ in length";
  let p, finish = writer ?fill disk in
  let k = ref 0 in
  for v = 0 to Tree.size tree - 1 do
    let code =
      if !k < n_trans && trans_pre.(!k) = v then begin
        let c = trans_code.(!k) in
        incr k;
        Some c
      end
      else None
    in
    pack p ~tag:(Tree.tag tree v) ~closes:(Tree.closes_after tree v) code
  done;
  if !k <> n_trans then
    invalid_arg "Nok_layout.build: transitions not sorted within the document";
  finish ()

(** {1 Streaming construction}

    One pass over SAX-style events (§2; §7 embeds the codes in the
    stream "as control characters").  A node's close count is final
    only when the next element starts or the stream ends, so one node is
    held back. *)

type stream = {
  packer : packer;
  finish : unit -> t;
  mutable held_tag : int; (* the held-back node, -1 before the first start *)
  mutable held_code : int option;
  mutable held_closes : int; (* end events after the held-back node *)
}

let stream ?fill disk =
  let packer, finish = writer ?fill disk in
  { packer; finish; held_tag = -1; held_code = None; held_closes = 0 }

let emit_held s =
  if s.held_tag >= 0 then
    pack s.packer ~tag:s.held_tag ~closes:s.held_closes s.held_code

let start_element s ~tag ?code () =
  emit_held s;
  s.held_tag <- tag;
  s.held_code <- code;
  s.held_closes <- 0

let end_element s = s.held_closes <- s.held_closes + 1

let end_stream s =
  emit_held s;
  s.finish ()

(** Attach to an existing disk whose pages [0, n_pages) hold a layout in
    logical order (as written by a database file loader): the in-memory
    page table is reconstructed from the page headers in one scan. *)
let attach disk ~n_pages =
  if n_pages <= 0 then invalid_arg "Nok_layout.attach: no pages";
  let n_nodes = ref 0 in
  let pages =
    Array.init n_pages (fun lp ->
        let buf = Disk.read disk lp in
        let h = image_header buf in
        if h.first_pre <> !n_nodes then
          invalid_arg "Nok_layout.attach: pages not in dense logical order";
        n_nodes := !n_nodes + Page.get_u16 buf 0;
        (lp, h))
  in
  of_table disk ~n_nodes:!n_nodes pages

(** A private copy of the image of logical page [lp] (for database-file
    export), bypassing the pool. *)
let page_image t lp =
  let vw = t.view in
  if lp < 0 || lp >= vw.n_pages then invalid_arg "Nok_layout.page_image";
  Page.copy (Disk.read t.disk vw.phys.(lp))

(** {1 Page-level access through a buffer pool} *)

(* The page a handle touched last: preorders [lo, hi] live on physical
   page [pid] under view generation [gen].  A touch inside the span
   needs no search of the page table. *)
type span = {
  mutable lo : int;
  mutable hi : int;
  mutable pid : int;
  mutable gen : int;
}

let span () = { lo = 0; hi = -1; pid = -1; gen = -1 }

(** Fetch the page holding [pre].  This is the only way query
    evaluation touches data, so the pool's counters capture all I/O. *)
let touch t sp pool pre =
  let vw = t.view in
  if not (pre >= sp.lo && pre <= sp.hi && sp.gen = vw.vgen) then begin
    let lp = page_in t vw pre in
    sp.lo <- vw.first_pres.(lp);
    sp.hi <-
      (if lp + 1 < vw.n_pages then vw.first_pres.(lp + 1) - 1
       else t.n_nodes - 1);
    sp.pid <- vw.phys.(lp);
    sp.gen <- vw.vgen
  end;
  ignore (Buffer_pool.get pool sp.pid)

let records t pool lp =
  let vw = t.view in
  if lp < 0 || lp >= vw.n_pages then invalid_arg "Nok_layout.records";
  decode_image (Buffer_pool.get pool vw.phys.(lp))

(** The access-control code in force at node [pre] (§3.3): fetch the
    node's page, start from the header code and replay inline transition
    codes up to [pre].  No I/O beyond the node's own page.  This is the
    per-node ACCESS hot path of Algorithm 1, so it scans the raw record
    bytes in place instead of materializing records.  [cu] is the
    caller's scan cursor: consecutive forward lookups on one page resume
    instead of replaying from the page start. *)
let code_in_force_at t cu pool pre =
  let vw = t.view in
  let lp = page_in t vw pre in
  let page = Buffer_pool.get pool vw.phys.(lp) in
  if not vw.changes.(lp) then vw.first_codes.(lp)
  else begin
    let n = Page.get_u16 page 0 in
    let first_pre = Page.get_u32 page 2 in
    let stop = min (pre - first_pre) (n - 1) in
    (* resume from the cursor when scanning forward on the same page (and
       no rewrite invalidated the recorded byte position) *)
    let start, pos0, code0 =
      if
        cu.cur_gen = vw.vgen && cu.cur_lp = lp
        && cu.cur_pre <= first_pre + stop
        && cu.cur_pre >= first_pre
      then (cu.cur_pre - first_pre + 1, cu.cur_pos, cu.cur_code)
      else (0, header_bytes, vw.first_codes.(lp))
    in
    let code = ref code0 in
    let pos = ref pos0 in
    let skip_varint () =
      while Bytes.get_uint8 page !pos >= 128 do
        incr pos
      done;
      incr pos
    in
    for _i = start to stop do
      let flags = Bytes.get_uint8 page !pos in
      incr pos;
      skip_varint () (* tag *);
      skip_varint () (* closes *);
      if flags land 1 <> 0 then begin
        let c, p = Varint.read page !pos in
        code := c;
        pos := p
      end
    done;
    cu.cur_gen <- vw.vgen;
    cu.cur_lp <- lp;
    cu.cur_pre <- first_pre + stop;
    cu.cur_pos <- !pos;
    cu.cur_code <- !code;
    !code
  end

let code_in_force t pool pre = code_in_force_at t t.own_cursor pool pre

(** {1 Updates} *)

(** Rewrite logical page [lp] with new records.  The first record must
    keep the page's [first_pre]; its code, if any, moves into the header.
    If the encoded size exceeds the page, the page is split in two —
    "updates are confined within a contiguous region of the affected
    data" (§3.4, update locality).

    Copy-on-write: the page-table arrays of the current view are never
    mutated — fresh arrays go into a successor view — so frozen
    snapshot handles sharing the old view stay consistent. *)
let rewrite_page t pool lp records ~code_before =
  if t.frozen then
    invalid_arg "Nok_layout.rewrite_page: frozen snapshot handle";
  let vw = t.view in
  (match records with
  | [] -> invalid_arg "Nok_layout.rewrite_page: empty"
  | r :: _ ->
      if r.pre <> vw.first_pres.(lp) then
        invalid_arg "Nok_layout.rewrite_page: first preorder must be preserved");
  let page_size = Disk.page_size t.disk in
  let encode_into ~first_depth records =
    match records with
    | [] -> assert false
    | first :: rest ->
        let first_code =
          match first.code with Some c -> c | None -> code_before first.pre
        in
        let change = List.exists (fun r -> r.code <> None) rest in
        let page =
          encode page_size
            { first_pre = first.pre; first_code; change; first_depth }
            ({ first with code = None } :: rest)
        in
        (page, first_code, change)
  in
  let total =
    header_bytes
    + List.fold_left (fun acc r -> acc + record_bytes r) 0 records
    (* first record never stores an inline code *)
    - (match records with
      | { code = Some c; _ } :: _ -> Varint.encoded_length c
      | _ -> 0)
  in
  if total <= page_size then begin
    let page, first_code, change =
      encode_into ~first_depth:vw.first_depths.(lp) records
    in
    let pid = vw.phys.(lp) in
    Disk.write t.disk pid page;
    if Buffer_pool.resident pool pid then begin
      Bytes.blit page 0 (Buffer_pool.get pool pid) 0 page_size;
      ()
    end;
    let first_codes = Array.copy vw.first_codes in
    first_codes.(lp) <- first_code;
    let changes = Array.copy vw.changes in
    changes.(lp) <- change;
    t.view <- { vw with first_codes; changes; vgen = vw.vgen + 1 };
    Hashtbl.replace t.dirty lp ()
  end
  else begin
    (* Split: first half stays on this physical page, second half goes to
       a freshly allocated page spliced into the logical order. *)
    let arr = Array.of_list records in
    let k = Array.length arr in
    let mid = max 1 (k / 2) in
    let left = Array.to_list (Array.sub arr 0 mid) in
    let right = Array.to_list (Array.sub arr mid (k - mid)) in
    let right_first = (List.hd right).pre in
    let new_pid = Disk.allocate t.disk in
    (* Splice the new logical page in at lp+1. *)
    let splice a v =
      let n = Array.length a in
      Array.init (n + 1) (fun i ->
          if i <= lp then a.(i) else if i = lp + 1 then v else a.(i - 1))
    in
    (* Depth of the right page's first node must be recomputed by the
       caller; we derive it from the left page's records by replaying the
       parenthesis balance. *)
    let depth_after =
      List.fold_left
        (fun d r -> d + 1 - r.closes)
        (vw.first_depths.(lp) - 1)
        left
      (* after processing left records, depth of next node = d + 1 *)
      + 1
    in
    let phys = splice vw.phys new_pid in
    let first_pres = splice vw.first_pres right_first in
    let first_codes = splice vw.first_codes 0 (* fixed below *) in
    let first_depths = splice vw.first_depths depth_after in
    let changes = splice vw.changes false in
    let page_l, first_code_l, change_l =
      encode_into ~first_depth:first_depths.(lp) left
    in
    Disk.write t.disk phys.(lp) page_l;
    first_codes.(lp) <- first_code_l;
    changes.(lp) <- change_l;
    (* Code in force just before the right page's first node: replay left. *)
    let code_before_right =
      List.fold_left
        (fun c r -> match r.code with Some c' -> c' | None -> c)
        first_code_l left
    in
    let right =
      match right with
      | ({ code = None; _ } as r) :: rest ->
          { r with code = Some code_before_right } :: rest
      | r :: _ as right ->
          ignore r;
          right
      | [] -> assert false
    in
    let page_r, first_code_r, change_r =
      encode_into ~first_depth:first_depths.(lp + 1) right
    in
    Disk.write t.disk new_pid page_r;
    first_codes.(lp + 1) <- first_code_r;
    changes.(lp + 1) <- change_r;
    (* Invalidate any stale pool copy of the split page. *)
    if Buffer_pool.resident pool phys.(lp) then
      Bytes.blit page_l 0 (Buffer_pool.get pool phys.(lp)) 0 page_size;
    t.view <-
      {
        phys;
        first_pres;
        first_codes;
        changes;
        first_depths;
        n_pages = vw.n_pages + 1;
        vgen = vw.vgen + 1;
      };
    (* Splitting shifts every logical page id after [lp]: previously
       recorded dirty ids no longer name the same pages. *)
    t.renumbered <- true
  end

(** Report and clear the pages rewritten since the last drain.  After a
    split the logical numbering changed, so the only safe answer is
    [`Renumbered] (journal everything). *)
let drain_dirty t =
  let result =
    if t.renumbered then `Renumbered
    else if Hashtbl.length t.dirty = 0 then `Clean
    else
      `Pages
        (List.sort compare (Hashtbl.fold (fun lp () acc -> lp :: acc) t.dirty []))
  in
  Hashtbl.reset t.dirty;
  t.renumbered <- false;
  result

(** {1 Verification} *)

(** Rebuild the document tree by scanning all pages in logical order —
    exercises the full decode path; used by round-trip tests. *)
let decode_tree t pool ~tag_table =
  let b = Tree.Builder.create ~table:tag_table () in
  let names = tag_table in
  for lp = 0 to t.view.n_pages - 1 do
    List.iter
      (fun r ->
        ignore (Tree.Builder.open_element b (Dolx_xml.Tag.name names r.tag));
        for _ = 1 to r.closes do
          Tree.Builder.close_element b
        done)
      (records t pool lp)
  done;
  Tree.Builder.finish b

(** Recover the full (pre, code) transition list from the physical pages,
    including the synthetic per-page initial transitions collapsed away:
    returns the code in force at every node — O(N), test use only. *)
let codes_of_all_nodes t pool =
  let vw = t.view in
  let out = Array.make t.n_nodes 0 in
  let code = ref (-1) in
  for lp = 0 to vw.n_pages - 1 do
    let rs = records t pool lp in
    (match rs with
    | [] -> ()
    | first :: _ ->
        ignore first;
        code := vw.first_codes.(lp));
    List.iteri
      (fun i r ->
        (match r.code with
        | Some c -> code := c
        | None -> if i = 0 then code := vw.first_codes.(lp))
        ;
        out.(r.pre) <- !code)
      rs
  done;
  out

(** Total bytes occupied on disk by the layout. *)
let storage_bytes t = t.view.n_pages * Disk.page_size t.disk

(** Bytes of in-memory page headers (the paper estimates "3Mb to 10Mb as
    page header for processing 1Tb XML data"). *)
let header_table_bytes t = t.view.n_pages * 11 (* 4 + 4 + 2 + 1 per entry *)
