(** DOL maintenance under accessibility and structural updates (paper
    §3.4).  Every operation preserves the DOL invariants and obeys
    Proposition 1: the number of transition nodes grows by at most 2
    (counting the inserted fragment's own transitions for inserts).

    The [dol_*] operations are logical; {!set_node_accessibility} and
    {!set_subtree_accessibility} additionally patch the affected disk
    pages, so the paper's update-cost claims (one page read + write per
    node update, ~N/B for a subtree) are measurable. *)

module Tree = Dolx_xml.Tree

(** {1 Accessibility updates (logical)} *)

(** Set a single node's accessibility for one subject; [true] if the DOL
    changed.  The paper's algorithm verbatim. *)
val dol_set_node : Dol.t -> subject:int -> grant:bool -> Tree.node -> bool

(** Set one subject's accessibility over the preorder range [lo, hi],
    preserving all other subjects' rights within it. *)
val dol_set_range : Dol.t -> subject:int -> grant:bool -> lo:int -> hi:int -> unit

(** {!dol_set_range} over [v]'s whole subtree. *)
val dol_set_subtree : Dol.t -> Tree.t -> subject:int -> grant:bool -> Tree.node -> unit

(** Replace the full ACL over [lo, hi] (all subjects at once). *)
val dol_set_range_acl : Dol.t -> lo:int -> hi:int -> Dolx_util.Bitset.t -> unit

(** {1 Structural updates (logical, functional)} *)

(** The DOL of preorder range [lo, hi] as a standalone DOL with a fresh
    codebook — carries access rights along with a moved/copied subtree. *)
val extract_range : Dol.t -> lo:int -> hi:int -> Dol.t

(** Insert a fragment (with its own DOL) so its root lands at preorder
    [at] (0 < at <= n).  The main codebook absorbs the fragment's ACLs.
    @raise Invalid_argument on bad positions or subject-width mismatch. *)
val dol_insert : Dol.t -> at:int -> Dol.t -> Dol.t

(** Delete the preorder range [lo, hi] (a subtree). *)
val dol_delete : Dol.t -> lo:int -> hi:int -> Dol.t

(** Move range [lo, hi] to start at position [at] of the post-delete
    document: {!dol_delete} then {!dol_insert}, each within
    Proposition 1. *)
val dol_move : Dol.t -> lo:int -> hi:int -> at:int -> Dol.t

(** {1 Subject-set updates (§3.4)} *)

(** Add a subject column (rights optionally copied from [like]); no
    change to embedded transitions.  Returns the new subject's index. *)
val add_subject : Dol.t -> ?like:int -> unit -> int

(** Remove a subject; only the codebook changes (redundancy cleaned
    lazily by {!compact}). *)
val remove_subject : Dol.t -> int -> unit

(** Lazy correction pass: drop transitions whose ACL equals the ACL in
    force before them. *)
val compact : Dol.t -> unit

(** {1 Physical write-through} *)

(** Re-emit every page intersecting [lo, hi+1] from the store's logical
    DOL (read-modify-write; may split pages). *)
val refresh_pages : Secure_store.t -> lo:int -> hi:int -> unit

(** Single-node accessibility update on a secured store: logical change
    plus page write-back ("a page read followed by a page write").  Runs
    as one {!Secure_store.with_write} window — readers pinned before it
    keep the pre-image, readers created after see the whole update —
    and the new epoch keeps every other subject's access runs. *)
val set_node_accessibility :
  Secure_store.t -> subject:int -> grant:bool -> Tree.node -> bool

(** Subtree accessibility update on a secured store (~N/B page I/Os);
    one update window like {!set_node_accessibility}, keeping the other
    subjects' access runs too. *)
val set_subtree_accessibility :
  Secure_store.t -> subject:int -> grant:bool -> Tree.node -> unit

(** {1 Store-level subject updates}

    The dol-level {!add_subject} / {!remove_subject} mutate the codebook
    in place — unsafe once snapshot readers share it.  These variants
    copy-on-write the codebook and publish a new epoch, so pinned
    readers keep the old book. *)

(** {!add_subject} on a store, as one update window with a codebook
    copy-on-write.  Returns the new subject's index. *)
val store_add_subject : Secure_store.t -> ?like:int -> unit -> int

(** {!remove_subject} on a store, as one update window with a codebook
    copy-on-write. *)
val store_remove_subject : Secure_store.t -> int -> unit

(** {!compact} on a store, as one update window with the affected pages
    re-emitted. *)
val store_compact : Secure_store.t -> unit

(** Patch a DOL so it matches [labeling] over the given preorder runs —
    the DOL side of incremental accessibility-map maintenance (see
    [Dolx_policy.Incremental]). *)
val sync_ranges : Dol.t -> Dolx_policy.Labeling.t -> (int * int) list -> unit

(** {1 Durable (journaled) updates}

    Crash-safe variants over a clean {!Db_file} image: the update is
    journaled (write-ahead, commit-marked) before the file is compacted,
    so a crash at any point leaves an image loading as exactly the pre-
    or exactly the post-update labeling — never a hybrid. *)

(** Durable {!set_node_accessibility}: returns the new clean image. *)
val durable_node_update :
  ?pool_capacity:int -> base:Bytes.t -> subject:int -> grant:bool ->
  Tree.node -> Bytes.t

(** Durable {!set_subtree_accessibility}: returns the new clean image. *)
val durable_subtree_update :
  ?pool_capacity:int -> base:Bytes.t -> subject:int -> grant:bool ->
  Tree.node -> Bytes.t
