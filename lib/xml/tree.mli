(** Arena-encoded ordered XML trees.

    A node is identified with its preorder rank, which equals document
    order (paper §2): the document-order predecessor of [v] is [v - 1]
    and the subtree rooted at [v] is the contiguous preorder range
    [v, v + subtree_size v).  All structure lives in flat int arrays,
    giving O(1) first-child / next-sibling / parent / subtree-interval —
    exactly the primitives NoK navigation needs (paper Algorithm 1), and
    a faithful in-memory mirror of the succinct document-order string
    "(a(b)(c)…)" of §3.1. *)

type node = int

(** Sentinel for "no node" (absent parent/child/sibling). *)
val nil : node

type t

(** Alias for {!t}, usable inside {!Builder}'s signature where [t] names
    the builder. *)
type tree = t

(** Number of nodes. *)
val size : t -> int

(** The document root, always preorder 0. *)
val root : node

(** Interned tag id of [v]. *)
val tag : t -> node -> Tag.id

val tag_name : t -> node -> string

(** Parent of [v], or {!nil} for the root. *)
val parent : t -> node -> node

(** First child in document order, or {!nil}. *)
val first_child : t -> node -> node

(** Following sibling, or {!nil}. *)
val next_sibling : t -> node -> node

(** Nodes in [v]'s subtree, including [v]. *)
val subtree_size : t -> node -> int

(** The arena's parent array, [parents t].(v) = [parent t v] for every
    node: the array itself, not a copy, for loops that read many nodes'
    parents without a call per node.  Callers must not mutate it. *)
val parents : t -> node array

(** The arena's subtree-size array, [subtree_sizes t].(v) =
    [subtree_size t v]: the array itself, read-only, as {!parents}. *)
val subtree_sizes : t -> int array

(** Concatenated text content directly under [v] ("" when none). *)
val text : t -> node -> string

val tag_table : t -> Tag.table

(** Preorder of the last node in [v]'s subtree. *)
val subtree_end : t -> node -> node

val is_leaf : t -> node -> bool

(** Is [a] a proper ancestor of [d]?  O(1) via interval containment. *)
val is_ancestor : t -> node -> node -> bool

(** Distance from the root (root = 0). *)
val depth : t -> node -> int

val children : t -> node -> node list

val iter_children : (node -> unit) -> t -> node -> unit

(** Document-order (preorder) iteration over the whole tree. *)
val iter : (node -> unit) -> t -> unit

(** Document-order iteration over [v]'s subtree. *)
val iter_subtree : (node -> unit) -> t -> node -> unit

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a

(** Number of close-parens after [v] in the compacted NoK document-order
    string (§3.1): how many subtrees end exactly at [v]. *)
val closes_after : t -> node -> int

(** {1 Building} *)

(** SAX-style construction: [open_element]/[close_element] pairs in
    document order. *)
module Builder : sig
  type t

  (** [create ?table ()] — share an existing tag table to keep ids
      compatible across documents. *)
  val create : ?table:Tag.table -> unit -> t

  val tag_table : t -> Tag.table

  (** Open an element; returns its preorder rank. *)
  val open_element : t -> string -> node

  val close_element : t -> unit

  (** Append text content to the innermost open element. *)
  val add_text : t -> string -> unit

  (** A complete leaf element with text content. *)
  val leaf : t -> string -> string -> node

  (** Finish the document.  @raise Invalid_argument if elements remain
      open or nothing was built. *)
  val finish : t -> tree
end

(** Nested tree description for tests and examples. *)
type spec = El of string * spec list | Elt of string * string * spec list

val of_spec : ?table:Tag.table -> spec -> t

(** {1 Structural edits (functional)} *)

(** Remove the subtree rooted at [v] — O(n) replay into a fresh arena.
    The matching DOL operation is [Dolx_core.Update.dol_delete] over
    [v]'s preorder range.  @raise Invalid_argument on the root. *)
val remove_subtree : t -> node -> t

(** Insert [sub] (a whole document) as a child of [parent] directly
    after sibling [after] ({!nil} = first child); returns the new tree
    and the preorder the inserted root landed on — the [at] position for
    [Dolx_core.Update.dol_insert].
    @raise Invalid_argument when [after] is not a child of [parent]. *)
val insert_subtree : t -> parent:node -> after:node -> t -> t * node

(** The compacted document-order structure string of §3.1,
    e.g. ["a(b)(c)(d)(e(f)…)"]. *)
val structure_string : t -> string

(** Check all arena invariants; raises [Failure] on violation.  Used by
    property tests. *)
val validate : t -> unit
