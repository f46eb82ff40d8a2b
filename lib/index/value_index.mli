(** Value index: nodes by (tag, text value) — §4.1's "B+ trees on the
    subtree root's value" — as one resident array sorted by (tag, text,
    preorder).  Lookups are exact. *)

type t

(** Index every non-empty-text node. *)
val build : Dolx_xml.Tree.t -> t

(** Nodes with the tag and exactly this text, in document order; empty
    for a tag id the index never saw.  Two binary searches. *)
val postings : t -> Dolx_xml.Tag.id -> value:string -> Postings.t

(** {!postings} restricted to the preorder range [lo, hi]. *)
val postings_in :
  t -> Dolx_xml.Tag.id -> value:string -> lo:int -> hi:int -> Postings.t
