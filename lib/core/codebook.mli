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

(** Intern an ACL, returning its code. *)
val intern : t -> Bitset.t -> code

(** Append an entry verbatim, preserving its index even when an equal
    entry already exists — a codebook legally holds duplicates after
    subject removals until {!Update.compact} runs, and persistence must
    reconstruct such a book exactly (embedded codes reference entry
    indices).  Future {!intern}s still return the lowest code per ACL.
    @raise Invalid_argument on a width mismatch. *)
val append_exact : t -> Bitset.t -> code

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
