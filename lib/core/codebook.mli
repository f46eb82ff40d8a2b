(** The DOL codebook: dictionary compression of access-control lists
    (paper §2.1).  Each distinct ACL appearing at a transition is stored
    once; transitions carry small codes.  The codebook is kept in memory
    (§3.2).  Entries are never removed — subject deletion narrows them
    instead, and redundancy "can be corrected lazily" (§3.4). *)

module Bitset = Dolx_util.Bitset

type code = int

type t

val create : width:int -> t

(** Number of subjects (bits per entry). *)
val width : t -> int

(** An independent copy (sharing the immutable ACL bit-vectors) — the
    copy-on-write step for subject addition/removal under snapshot
    isolation: mutate the copy, swap it into the live DOL, and snapshot
    holders keep the old book.  Plain {!intern} needs no copy (it is
    append-only). *)
val copy : t -> t

(** Number of entries — the paper's Fig. 5 metric. *)
val count : t -> int

(** Intern an ACL, returning its code: one lookup, and on a miss one
    insert. *)
val intern : t -> Bitset.t -> code

(** [of_acls store ids] is the codebook whose code [c] is ACL [ids.(c)]
    of [store].  [Dolx_policy.Acl] ids are hash-consed — distinct ids
    hold distinct bitsets — so each entry is inserted with no lookup,
    and {!intern} returns each entry's own code; [Dol.of_labeling]
    builds its codebook this way, one insert per distinct ACL.  The
    table starts at the size interning would grow it to, so no insert
    resizes it.
    @raise Invalid_argument on a repeated or unknown id. *)
val of_acls : Dolx_policy.Acl.store -> Dolx_policy.Acl.id array -> t

(** [of_entries ~width entries] keeps every entry at its index, even
    when an equal entry already exists — a codebook legally holds
    duplicates after subject removals until [Update.compact] runs, and
    persistence must reconstruct such a book exactly (embedded codes
    reference entry indices).  {!intern} returns the lowest code per
    ACL.  One lookup and one insert per entry.
    @raise Invalid_argument on a width mismatch. *)
val of_entries : width:int -> Bitset.t array -> t

(** @raise Invalid_argument on an unknown code. *)
val get : t -> code -> Bitset.t

(** "The s-th bit in that code book entry indicates the accessibility of
    the node for subject s" (§3.3).  Served from a lazily decoded
    per-subject byte slice, so the per-node check of Algorithm 1 is a
    single byte load; the slice self-repairs after {!intern} and is
    dropped on subject addition/removal.  Safe for concurrent readers
    (the slice is published through an [Atomic]); mutators must be
    quiescent. *)
val grants : t -> code -> int -> bool

(** Code of the ACL equal to entry [c] with [subject]'s bit set to [b]. *)
val with_bit : t -> code -> int -> bool -> code

(** Add a subject column, optionally copying rights from [like] (§3.4).
    Returns the new subject's index. *)
val add_subject : t -> ?like:int -> unit -> int

(** Drop a subject column.  May leave duplicate entries; see
    {!redundant_entries} and [Update.compact]. *)
val remove_subject : t -> int -> unit

(** Number of duplicate entries left behind by subject removals. *)
val redundant_entries : t -> int

(** Bytes for the codebook: one bit per subject per entry (the paper's
    §5.1 accounting). *)
val storage_bytes : t -> int

(** Bytes of one embedded code reference given the current entry count
    (the paper's "2 byte access control code for 4000 entries"). *)
val code_bytes : t -> int

val iter : (code -> Bitset.t -> unit) -> t -> unit
