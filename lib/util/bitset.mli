(** Fixed-width bitsets.

    ACLs are bit-vectors with one bit per access-control subject (paper
    §2.1).  They are treated as immutable once interned — equality and
    hashing are by value — but imperative [set] is provided for the
    construction phase. *)

type t

(** [create width] is the all-clear bitset over [width] bits. *)
val create : int -> t

(** [full width] has every bit in [0, width) set. *)
val full : int -> t

val width : t -> int

val copy : t -> t

(** [get t i] — bit [i].  @raise Invalid_argument when out of range. *)
val get : t -> int -> bool

(** In-place update; only for bitsets not yet shared or interned. *)
val set : t -> int -> bool -> unit

(** Functional update: a fresh bitset with bit [i] set to [b]. *)
val with_bit : t -> int -> bool -> t

(** Value equality (same width, same bits). *)
val equal : t -> t -> bool

val compare : t -> t -> int

(** Value hash, consistent with {!equal}. *)
val hash : t -> int

(** Number of set bits. *)
val popcount : t -> int

val is_empty : t -> bool

val union : t -> t -> t

val inter : t -> t -> t

(** [diff a b] — bits set in [a] but not in [b]. *)
val diff : t -> t -> t

(** Grow to [new_width], new high bits cleared (paper §3.4: adding a
    subject column).  @raise Invalid_argument when shrinking. *)
val resize : t -> int -> t

(** Remove bit position [i], shifting higher bits down (subject
    deletion). *)
val remove_bit : t -> int -> t

(** Apply [f] to each set bit index, ascending. *)
val iter_set : (int -> unit) -> t -> unit

(** Indices of set bits, ascending. *)
val to_list : t -> int list

val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit

(** "0110…" rendering, one character per bit. *)
val to_string : t -> string

(** Bytes to store one ACL of this width (one bit per subject), matching
    the paper's space accounting. *)
val storage_bytes : t -> int

(** {1 Byte images}

    The persisted entry layout: {!storage_bytes} bytes, bit [i] is bit
    [i mod 8] of byte [i / 8] (little-endian, 8 bits per byte). *)

(** [write_bytes t buf pos] writes [t]'s image at [buf.[pos]]; bits of
    the last byte past the width are written clear.
    @raise Invalid_argument when the image does not fit. *)
val write_bytes : t -> Bytes.t -> int -> unit

(** [of_bytes ~width buf pos] reads the image of a [width]-bit set at
    [buf.[pos]].  Bits of the last byte past [width] are ignored.
    @raise Invalid_argument when the image runs past [buf]. *)
val of_bytes : width:int -> Bytes.t -> int -> t
