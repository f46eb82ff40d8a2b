(** Tag index: for each element name, the document-order postings of the
    nodes carrying it, as resident sorted arrays (CSR postings) — what
    paper §4.1 starts matching from ("B+ trees on … tag names"). *)

type t

(** Index every node of the document: one counting-sort pass. *)
val build : Dolx_xml.Tree.t -> t

(** All nodes with the tag, in document order; empty for a tag id the
    index never saw (negative, or interned after {!build}). *)
val postings : t -> Dolx_xml.Tag.id -> Postings.t

(** Postings restricted to the preorder range [lo, hi] — evaluates
    descendant steps inside a known subtree.  Two binary searches. *)
val postings_in : t -> Dolx_xml.Tag.id -> lo:int -> hi:int -> Postings.t

(** Number of nodes with the tag, O(1). *)
val count : t -> Dolx_xml.Tag.id -> int
