(** A sorted, duplicate-free set of preorders, as the document indexes
    return it: a slice of an index's resident array, or every preorder of
    a range (a wildcard step's candidates).  Nothing is copied: narrowing
    is two binary searches, and {!length} is O(1). *)

type t

val empty : t

(** [slice nodes first stop] — [nodes.(first .. stop - 1)], which must be
    ascending.  The array is shared, not copied. *)
val slice : int array -> int -> int -> t

(** Every preorder in [\[lo, hi\]] ({!empty} when [lo > hi]). *)
val span : int -> int -> t

val length : t -> int

(** [get t i] — the [i]-th smallest member, [0 <= i < length t]. *)
val get : t -> int -> int

(** The members inside [\[lo, hi\]]. *)
val narrow : t -> lo:int -> hi:int -> t

(** The members, ascending. *)
val to_list : t -> int list

(** [members t] — an array and the range [\[first, stop)] of positions
    that holds [t]'s members in ascending order, for a caller that walks
    them itself: a slice's own array (shared, not copied), or, for a
    span, an empty array and the span's own bounds — its members are
    the positions themselves, so nothing is materialized. *)
val members : t -> int array * int * int

(** [seek t i v] — the least position [j >= i] whose member is [>= v],
    or [length t]: a galloping search from [i], so a short skip costs a
    few probes. *)
val seek : t -> int -> int -> int

(** [bisect lo hi p] — the least [i] in [\[lo, hi)] with [p i], or [hi];
    [p] must be monotone (false, then true). *)
val bisect : int -> int -> (int -> bool) -> int
