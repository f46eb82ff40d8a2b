(** DOL — Document Ordered Labeling, the paper's core contribution (§2).

    "We define a transition node to be a secured tree node whose
    accessibility is different from its document-order predecessor …
    The DOL … is simply a list, in document order, of the tree's
    transition nodes, together with their accessibilities"; for multiple
    subjects each transition carries a {!Codebook} code (§2.1).

    This is the logical DOL; the physical, page-embedded form lives in
    {!Secure_store} / [Dolx_storage.Nok_layout].  The representation is
    exposed (not abstract) because {!Update} performs transition-list
    surgery on it; treat the fields as read-only elsewhere. *)

type t = {
  mutable codebook : Codebook.t;
      (** replaced wholesale (copy-on-write) by subject add/remove so
          snapshot holders keep the old book; see {!snapshot} *)
  mutable trans_pre : int array;   (** sorted transition preorders; [.(0) = 0] *)
  mutable trans_code : int array;  (** parallel codes *)
  mutable n_nodes : int;
  mutable generation : int;        (** bumped on every in-place mutation *)
}

val codebook : t -> Codebook.t

(** A shallow copy pinning the current arrays and codebook.  In-place
    updates replace the live record's arrays wholesale (and subject
    add/remove swaps in a fresh codebook), so the snapshot keeps
    answering from the state it captured — this is what a
    [Secure_store] publishes to reader handles at each epoch.  Only the
    updating thread may take one (it reads the mutable fields). *)
val snapshot : t -> t

(** Mutation stamp.  {!Update} bumps it whenever the transition list or
    the subject population changes; derived structures ({!Access_runs},
    cursors) compare stamps to detect staleness. *)
val generation : t -> int

(** Invalidate every derived structure holding the current stamp. *)
val bump_generation : t -> unit

val n_nodes : t -> int

(** Number of transition nodes — the paper's Fig. 6 metric. *)
val transition_count : t -> int

(** {1 Construction} *)

(** Build from a materialized labeling in one document-order pass. *)
val of_labeling : Dolx_policy.Labeling.t -> t

(** Single-subject DOL from a boolean accessibility array. *)
val of_bool_array : bool array -> t

(** Streaming one-pass construction (paper §2: "constructed on-the-fly
    using a single pass through a labeled XML document"). *)
module Streaming : sig
  type builder

  val create : width:int -> builder

  (** Feed the ACL of the next node in document order.  Returns
      [Some code] when the node is a transition node (a control
      character would be emitted into the stream). *)
  val push : builder -> Dolx_util.Bitset.t -> Codebook.code option

  (** @raise Invalid_argument when no nodes were pushed. *)
  val finish : builder -> t
end

(** {1 Lookup (§3.3)} *)

(** Index of the transition governing node [v] — the nearest preceding
    transition node. *)
val governing_index : t -> int -> int

(** The access-control code in force at node [v]. *)
val code_at : t -> int -> Codebook.code

(** The full ACL in force at node [v]. *)
val acl_at : t -> int -> Dolx_util.Bitset.t

(** The accessibility function of paper §2. *)
val accessible : t -> subject:int -> int -> bool

(** Is [v] itself a transition node? *)
val is_transition : t -> int -> bool

(** {1 Resumable lookup}

    Document-order scans ({!Secure_view}, {!Stream_filter}, the
    {!Access_runs} builder) repeat [code_at] on ascending preorders; a
    cursor resumes from the previous governing transition so such scans
    cost O(1) amortized per node.  Any access pattern is still correct:
    backward seeks restart with a binary search, and a generation
    mismatch after an update forces a restart too. *)

type cursor

val cursor : t -> cursor

(** [code_at] through a cursor. *)
val code_at_cur : t -> cursor -> int -> Codebook.code

(** [accessible] through a cursor. *)
val accessible_cur : t -> cursor -> subject:int -> int -> bool

(** {1 Space accounting (paper §5.1)} *)

(** Bytes of the in-memory codebook. *)
val codebook_bytes : t -> int

(** Bytes of the embedded transition codes. *)
val embedded_bytes : t -> int

val storage_bytes : t -> int

(** Transition nodes per document node. *)
val transition_density : t -> float

(** {1 Verification} *)

(** Check that the DOL answers exactly like [labeling] on every node and
    subject.  @raise Failure on mismatch. *)
val verify_against : t -> Dolx_policy.Labeling.t -> unit

(** Check internal invariants (sorted transitions starting at the root,
    valid codes).  @raise Failure on violation. *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit
