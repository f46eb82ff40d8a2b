(** Path summary (DataGuide): one summary node — a "class" — per
    distinct root-to-node tag path in the document.

    Every data node belongs to exactly one class (the class of its tag
    path), so the classes of one tag partition that tag's extent.  Each
    class carries its extent cardinality, the preorder span of the
    extent, and the parent/children adjacency of the summary tree; the
    class tag id is the pointer into the {!Tag_index} postings.  The
    DataGuide property — every data edge has a summary edge — is what
    makes class-level query matching a sound (conservative) filter: a
    data node can only participate in a match if its class does.

    Immutable per published tree, like the arena it summarizes. *)

type t

(** A summary node.  Class ids are dense, preorder-of-first-occurrence;
    the root's class is [0] and [parent] ids are always smaller than
    their children's. *)
type cls = int

val build : Dolx_xml.Tree.t -> t

(** Number of classes = distinct root-to-node tag paths. *)
val node_count : t -> int

(** Classes whose extent contains at least one leaf — the distinct
    root-to-leaf tag paths. *)
val leaf_path_count : t -> int

(** The class of data node [v]. *)
val class_of : t -> Dolx_xml.Tree.node -> cls

(** The node-to-class map, [class_map t].(v) = [class_of t v]: the array
    itself, not a copy, for loops that classify many nodes without a
    call per node.  Callers must not mutate it. *)
val class_map : t -> cls array

val tag : t -> cls -> Dolx_xml.Tag.id

(** Parent class, [-1] for the root class. *)
val parent : t -> cls -> cls

(** Child classes, ascending. *)
val children : t -> cls -> cls list

(** Extent cardinality. *)
val extent : t -> cls -> int

(** Inclusive preorder span [lo, hi] of the extent (not necessarily
    contiguous inside). *)
val span : t -> cls -> int * int

val has_leaf : t -> cls -> bool

(** All classes carrying the tag, ascending. *)
val classes_with_tag : t -> Dolx_xml.Tag.id -> cls list

(** Heap bytes held (arrays + the per-node class map). *)
val bytes : t -> int
