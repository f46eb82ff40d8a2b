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

(** [bisect lo hi p] — the least [i] in [\[lo, hi)] with [p i], or [hi];
    [p] must be monotone (false, then true). *)
val bisect : int -> int -> (int -> bool) -> int

(** [scan ?gate ?only ?skipped t f] applies [f] to the members in
    ascending order and returns [true] at the first member [f] accepts,
    [false] when none does.  Members failing [only] are passed over
    before [gate] is consulted.  The others reach [f] only when they
    lie inside [gate]'s intervals: [gate v] is the first admitted
    interval [\[lo, hi)] that ends after [v] ([hi > v]; [lo = hi =
    max_int] when none remains), and one call covers every member
    inside it.  The members below its [lo] are skipped by a galloping
    search, and [skipped i j] is told their positions [\[i, j)] (which
    may include members failing [only]).  By default every member is
    admitted. *)
val scan :
  ?gate:(int -> int * int) ->
  ?only:(int -> bool) ->
  ?skipped:(int -> int -> unit) ->
  t ->
  (int -> bool) ->
  bool
