(** Succinct balanced-parentheses tree image.

    The document tree as a 2n-bit balanced-parentheses (BP) vector — the
    materialized form of the paper's §3.1 document-order string
    "(a(b)(c)…)" — with o(n)-bit rank/select and min-excess block
    directories, so all the structural primitives NoK navigation needs
    ([parent], [first_child], [next_sibling], [subtree_size], [depth])
    are answered in O(1)-ish time from ~3 bits per node instead of the
    arena's 5 machine words per node.  Preorder rank [v] corresponds to
    the (v+1)-th open parenthesis, so node identities are shared with
    the arena {!Dolx_xml.Tree} and every index keyed by preorder.

    The image is immutable.  It is not on the query path: the store
    keeps the arena resident and navigates it, one array load per hop,
    which measured far faster than these bit scans.  [dolx stats-db] and
    the [succinct] bench build it on demand to report its size. *)

type t

(** Encode [tree].  O(n) time; the result holds no reference to the
    arena. *)
val build : Dolx_xml.Tree.t -> t

(** Nodes encoded (= [Tree.size]). *)
val node_count : t -> int

(** Bit-vector length, always [2 * node_count]. *)
val length : t -> int

(** {1 Bitvector primitives} *)

(** Bit at position [i]: [true] = '(' (an open). *)
val get : t -> int -> bool

(** Number of set bits in [\[0, i)]. *)
val rank1 : t -> int -> int

(** Position of the [k]-th set bit (1-based); [1 <= k <= node_count]. *)
val select1 : t -> int -> int

(** Excess of the first [i] bits: opens minus closes.  [excess t p] for
    an open at [p] equals the node's depth. *)
val excess : t -> int -> int

(** Position of the close matching the open at [p] (min-excess block
    search). *)
val find_close : t -> int -> int

(** Position of the open enclosing the open at [p] — the parent's open —
    or [-1] for the root. *)
val enclose : t -> int -> int

(** {1 Preorder <-> position maps} *)

(** Position of node [v]'s open parenthesis. *)
val pos_of : t -> Dolx_xml.Tree.node -> int

(** Node whose open parenthesis sits at position [p] (which must hold an
    open). *)
val node_of : t -> int -> Dolx_xml.Tree.node

(** {1 Navigation (preorder in, preorder out)}

    All agree exactly with the arena tree the image was built from;
    [Tree.nil] marks an absent parent/child/sibling. *)

val parent : t -> Dolx_xml.Tree.node -> Dolx_xml.Tree.node

val first_child : t -> Dolx_xml.Tree.node -> Dolx_xml.Tree.node

val next_sibling : t -> Dolx_xml.Tree.node -> Dolx_xml.Tree.node

val subtree_size : t -> Dolx_xml.Tree.node -> int

(** Preorder of the last node in [v]'s subtree. *)
val subtree_end : t -> Dolx_xml.Tree.node -> Dolx_xml.Tree.node

val depth : t -> Dolx_xml.Tree.node -> int

val is_leaf : t -> Dolx_xml.Tree.node -> bool

(** Proper ancestorship via interval containment. *)
val is_ancestor : t -> Dolx_xml.Tree.node -> Dolx_xml.Tree.node -> bool

(** {1 Size accounting} *)

(** Total bits held: the vector plus every directory (rank, min/max
    excess, superblock, select samples), counting directory entries at
    64 bits each. *)
val size_bits : t -> int

(** [size_bits / node_count] — the acceptance headline; ~3 with 512-bit
    blocks. *)
val bits_per_node : t -> float
