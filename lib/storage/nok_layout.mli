(** Block-oriented NoK storage with embedded access-control codes — the
    paper's §3 physical representation.

    Document structure is stored as document-order node records (tag +
    close-paren count, the compacted string of §3.1); DOL transition
    nodes additionally carry an access-control code (§3.2).  The first
    node of every page is treated as a transition whose code lives in the
    page header, and an in-memory page table (first preorder, first code,
    change bit, first depth per page) supports the I/O optimizations of
    §3.2/§3.3 without touching disk. *)

module Tree = Dolx_xml.Tree

type header = {
  first_pre : int;
  first_code : int;
  change : bool;  (** a transition other than the initial one is present *)
  first_depth : int;
}

type t

(** One node record.  Exposed concretely so update code can rewrite
    pages; [code] is never [Some _] on a page's first record. *)
type record = {
  pre : int;
  tag : int;
  closes : int;
  code : int option;
}

val page_count : t -> int

val node_count : t -> int

val disk : t -> Disk.t

(** A snapshot handle over the current page table: shares the disk but
    never observes later {!rewrite_page}s (rewrites are copy-on-write —
    the live layout swaps in a fresh table instead of mutating the one
    this handle holds).  Pair it with an epoch-pinned {!Buffer_pool} so
    the page images match the table.  Mutating a frozen handle raises
    [Invalid_argument]. *)
val freeze : t -> t

val frozen : t -> bool

(** In-memory header of logical page [lp] — no I/O. *)
val header : t -> int -> header

(** Logical page holding preorder [pre] — binary search of the in-memory
    page table, no I/O. *)
val page_of : t -> int -> int

val physical_page : t -> int -> int

(** {1 Packing}

    The one page-break policy shared by every builder: records go in
    document order until the next would pass the fill budget, a page's
    first record keeps its code in the page header, and the change bit
    is set when any later record carries a code.  The packer tracks the
    preorder, depth and code in force itself. *)

type packer

(** A packer whose first record has preorder [pre] at depth [depth];
    each finished page is handed to the callback with its header.
    [fill] bounds page occupancy (see {!build}).
    @raise Invalid_argument on pages < 64 bytes or [fill] outside (0, 1]. *)
val packer :
  page_size:int -> fill:float -> pre:int -> depth:int ->
  (header -> Page.t -> unit) -> packer

(** Add the next record in document order: its tag, the number of
    elements closed after it, and its transition code if it is one.
    @raise Invalid_argument when no code is in force yet (the first
    node must carry one), or when the record would be a second
    top-level element. *)
val pack : packer -> tag:int -> closes:int -> int option -> unit

(** Finish the open page, if any. *)
val flush : packer -> unit

(** {1 Building} *)

(** Lay the document out on [disk] in document order.  [trans_pre] and
    [trans_code] are the DOL's parallel transition arrays (sorted
    preorders starting at the root, and their codes); [fill] bounds
    page occupancy at build time (default 0.9 — the slack absorbs
    accessibility updates in place, §3.4).
    @raise Invalid_argument on pages < 64 bytes or bad transitions. *)
val build :
  ?fill:float -> Disk.t -> Tree.t -> trans_pre:int array -> trans_code:int array -> t

(** One-pass construction from SAX-style events — the physical half of
    the paper's one-pass claims (§2, §7): the DOL transition code rides
    on the start event of each transition node, and pages are written as
    they fill, with one node of lookahead. *)
type stream

(** Pages are written to [disk]; [fill] as in {!build}. *)
val stream : ?fill:float -> Disk.t -> stream

(** A new element starts; [code] is its DOL transition code when the
    node is a transition. *)
val start_element : stream -> tag:int -> ?code:int -> unit -> unit

(** The innermost open element ends. *)
val end_element : stream -> unit

(** Flush and return the layout over the written pages; the page table
    is collected while writing, no page is read back.
    @raise Invalid_argument as {!pack} does, and on an empty or
    unclosed stream. *)
val end_stream : stream -> t

(** Attach to a disk whose pages [0, n_pages) hold a layout in dense
    logical order (a database-file load): the page table is rebuilt from
    the page headers.  @raise Invalid_argument on out-of-order pages. *)
val attach : Disk.t -> n_pages:int -> t

(** A private copy of the image of logical page [lp], bypassing the pool
    (database-file export). *)
val page_image : t -> int -> Page.t

(** A handle's memo of the page it touched last: that page's preorder
    span and physical id, stamped with the page-table generation, so a
    touch inside the span skips the page-table search.  A rewrite
    invalidates it.  One per handle. *)
type span

val span : unit -> span

(** Fetch the page holding [pre] through the pool (accounted I/O). *)
val touch : t -> span -> Buffer_pool.t -> int -> unit

(** Decode all records of logical page [lp]. *)
val records : t -> Buffer_pool.t -> int -> record list

(** Decode all records of a raw page image (no pool, no layout) —
    database-file recovery use. *)
val decode_image : Page.t -> record list

(** The header stored in a raw page image. *)
val image_header : Page.t -> header

(** A private scan-resume position for {!code_in_force_at}.  Each reader
    handle owns one; positions self-invalidate after any
    {!rewrite_page} (generation stamp), so a stale cursor degrades to a
    from-page-start replay, never a wrong code. *)
type cursor

(** A fresh (invalid) cursor for this layout. *)
val cursor : t -> cursor

(** The access-control code in force at node [pre] (§3.3): the header
    code replayed through the inline codes up to [pre], on the node's own
    page only.  Consecutive forward lookups resume from [cu], mirroring
    the NoK evaluator's sequential page cursor.  Distinct cursors make
    lookups independent, so concurrent readers (each with a private
    buffer pool) can share one layout. *)
val code_in_force_at : t -> cursor -> Buffer_pool.t -> int -> int

(** {!code_in_force_at} on the layout's own built-in cursor —
    single-handle use only. *)
val code_in_force : t -> Buffer_pool.t -> int -> int

(** Rewrite logical page [lp] with new records (same first preorder; an
    inline code on the first record moves into the header).  Splits the
    page when the encoding no longer fits — update locality, §3.4.
    [code_before pre] must give the code in force at [pre] when the first
    record carries none. *)
val rewrite_page :
  t -> Buffer_pool.t -> int -> record list -> code_before:(int -> int) -> unit

(** Logical pages rewritten since the last drain (sorted), [`Clean] when
    none, or [`Renumbered] when a page split shifted logical ids — then
    previously recorded ids are meaningless and callers must treat every
    page as changed.  Clears the tracked state. *)
val drain_dirty : t -> [ `Clean | `Pages of int list | `Renumbered ]

(** Rebuild the document by scanning all pages — the full decode path;
    for round-trip tests.  [tag_table] must resolve the stored tag ids
    (i.e. be the original document's table). *)
val decode_tree : t -> Buffer_pool.t -> tag_table:Dolx_xml.Tag.table -> Tree.t

(** The code in force at every node, by a full scan — O(N), test use. *)
val codes_of_all_nodes : t -> Buffer_pool.t -> int array

(** Bytes occupied on disk. *)
val storage_bytes : t -> int

(** Bytes of the in-memory page-header table. *)
val header_table_bytes : t -> int
