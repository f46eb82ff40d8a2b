(** Hash-consed access-control lists: bit-vectors with one bit per
    subject (paper §2.1), interned to dense ids so that labelings store
    one int per node and structurally equal ACLs are shared.  The DOL
    codebook is a re-numbering of exactly these interned values. *)

module Bitset = Dolx_util.Bitset

type id = int

type store

(** [create ~width] — a store for ACLs over [width] subjects. *)
val create : width:int -> store

val width : store -> int

(** Number of distinct interned ACLs. *)
val count : store -> int

(** Intern [bits].  The bitset must not be mutated afterwards; use
    {!Bitset.with_bit} for updates.  This is the only way to make an
    id, and it hash-conses: distinct ids of one store always hold
    distinct bitsets (not {!Bitset.equal}).  The DOL build relies on
    it to renumber ids into codebook codes without hashing an ACL per
    transition. *)
val intern : store -> Bitset.t -> id

(** @raise Invalid_argument on an unknown id. *)
val get : store -> id -> Bitset.t

(** Does ACL [id] grant [subject]? *)
val grants : store -> id -> int -> bool

(** The all-clear ACL's id. *)
val empty : store -> id

(** The all-set ACL's id. *)
val full : store -> id

(** Id of the ACL equal to [id] with [subject]'s bit set to [b]. *)
val with_bit : store -> id -> int -> bool -> id

val iter : (id -> Bitset.t -> unit) -> store -> unit
