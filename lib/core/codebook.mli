(** The DOL codebook: dictionary compression of access-control lists
    (paper §2.1).  Each distinct ACL appearing at a transition is stored
    once; transitions carry small codes.  The codebook is kept in memory
    (§3.2) as one flat matrix at one bit per subject per entry: code
    [c]'s row is [⌈width / 8⌉] bytes in the persisted entry layout of
    {!Dolx_util.Bitset.write_bytes}.  Entries are never removed —
    subject deletion narrows them instead, and redundancy "can be
    corrected lazily" (§3.4).

    The intern index (ACL → code) is built by the first {!intern} and
    kept in step by later ones.  Construction, loads, {!copy} and width
    changes leave the book without one, so a read-only book never pays
    for it.

    Concurrency: {!grants}, {!get} and {!iter_changes} are safe for
    readers on other domains while one writer interns (the matrix grows
    by a whole copy published through an [Atomic], and interning never
    rewrites a row); every other mutator needs the readers quiescent. *)

module Bitset = Dolx_util.Bitset

type code = int

type t

val create : width:int -> t

(** Number of subjects (bits per entry). *)
val width : t -> int

(** An independent copy of the matrix, without an intern index — the
    copy-on-write step for subject addition/removal under snapshot
    isolation: change the copy's width, swap it into the live DOL, and
    snapshot holders keep the old book.  Plain {!intern} needs no copy
    (it is append-only). *)
val copy : t -> t

(** Number of entries — the paper's Fig. 5 metric. *)
val count : t -> int

(** The most entries a book holds, [2^32]: a page header stores the code
    in force as a u32.  {!intern} past it and a construction of more
    raise [Invalid_argument]; [Persist] refuses an image claiming more. *)
val max_count : int

(** Intern an ACL, returning its code: the lowest code whose entry
    equals it, or a new entry.  The first call on a book builds the
    index over every existing entry in ascending code order. *)
val intern : t -> Bitset.t -> code

(** [of_acls store ids] is the codebook whose code [c] is ACL [ids.(c)]
    of [store]; [Dol.of_labeling] builds its codebook this way.
    [Dolx_policy.Acl] ids are hash-consed — distinct ids hold distinct
    bitsets — so the entries are distinct and a later {!intern} returns
    each entry's own code.  Builds no index.
    @raise Invalid_argument on a repeated or unknown id. *)
val of_acls : Dolx_policy.Acl.store -> Dolx_policy.Acl.id array -> t

(** [of_entries ~width entries] keeps every entry at its index, even
    when an equal entry already exists — a codebook legally holds
    duplicates after subject removals until [Update.compact] runs (embedded
    codes reference entry indices).  {!intern} returns the lowest code
    per ACL.  Builds no index.
    @raise Invalid_argument on a width mismatch. *)
val of_entries : width:int -> Bitset.t array -> t

(** [of_bytes ~width ~count buf pos] is the codebook of the [count]
    entries stored at [buf.[pos]] in the persisted layout, kept verbatim
    as {!of_entries} keeps them (bits of a row's last byte past [width]
    are cleared).  One copy; builds no index.
    @raise Invalid_argument when the entries run past [buf]. *)
val of_bytes : width:int -> count:int -> Bytes.t -> int -> t

(** Append every entry, in code order, in the persisted layout (bits
    past the width clear): [count * ⌈width / 8⌉] bytes. *)
val write_bytes : t -> Buffer.t -> unit

(** The entry of code [c], materialized as a bitset (a cold-path call:
    updates, persistence, tests).
    @raise Invalid_argument on an unknown code. *)
val get : t -> code -> Bitset.t

(** "The s-th bit in that code book entry indicates the accessibility of
    the node for subject s" (§3.3): one byte load from the matrix, the
    per-node check of Algorithm 1.
    @raise Invalid_argument on an unknown code or subject. *)
val grants : t -> code -> int -> bool

(** [iter_changes t subject codes f] calls [f i], in ascending [i], for
    every index of [codes] whose verdict for [subject] differs from the
    one before it (deny before index 0): a subject's flips over a
    transition list, one byte load per transition.
    @raise Invalid_argument on an unknown code or subject. *)
val iter_changes : t -> int -> code array -> (int -> unit) -> unit

(** Code of the ACL equal to entry [c] with [subject]'s bit set to [b]. *)
val with_bit : t -> code -> int -> bool -> code

(** Add a subject column, optionally copying rights from [like] (§3.4).
    Returns the new subject's index.  Drops the intern index. *)
val add_subject : t -> ?like:int -> unit -> int

(** Drop a subject column.  May leave duplicate entries; see
    {!redundant_entries} and [Update.compact].  Drops the intern index. *)
val remove_subject : t -> int -> unit

(** Number of duplicate entries left behind by subject removals.  Uses a
    scratch index; the book's own is left as it is. *)
val redundant_entries : t -> int

(** Bytes for the codebook: one bit per subject per entry (the paper's
    §5.1 accounting). *)
val storage_bytes : t -> int

(** Bytes of one embedded code reference given the current entry count
    (the paper's "2 byte access control code for 4000 entries"). *)
val code_bytes : t -> int

(** Bytes the book holds resident: the matrix at its capacity plus the
    intern index.  Published, with {!indexed_entries}, as the gauges
    [codebook.resident_bytes] and [codebook.indexed_entries] whenever a
    book is built, loaded, copied, grown or re-indexed (the last such
    book of the process). *)
val resident_bytes : t -> int

(** Entries in the intern index: 0 until the first {!intern}. *)
val indexed_entries : t -> int

(** Set the two gauges from this book (a registry reset zeroes them). *)
val publish_gauges : t -> unit

val iter : (code -> Bitset.t -> unit) -> t -> unit
