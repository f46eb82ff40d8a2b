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

(** [members t] — an array and the range [\[first, stop)] of it that
    holds [t]'s members in ascending order, for a caller that walks them
    itself: a slice's own array (shared, not copied), or a span's
    members in a fresh one. *)
val members : t -> int array * int * int

(** [seek t i v] — the least position [j >= i] whose member is [>= v],
    or [length t]: a galloping search from [i], so a short skip costs a
    few probes. *)
val seek : t -> int -> int -> int

(** [bisect lo hi p] — the least [i] in [\[lo, hi)] with [p i], or [hi];
    [p] must be monotone (false, then true). *)
val bisect : int -> int -> (int -> bool) -> int

(** {1 Gated cursors} *)

(** A resumable walk over the members of a {!t} that an optional class
    filter and an optional run gate admit: the one candidate pipeline,
    paused after each admitted member. *)
type cursor

(** [cursor ?gate ?only ?skipped t] walks [t]'s members in ascending
    order.  Members failing [only] are passed over before [gate] is
    consulted.  [gate v] is the least admitted preorder [>= v]
    ([max_int] when none remains): [v] is admitted when it is [v]
    itself, and otherwise the members below the answer are skipped by a
    galloping search, and [skipped i j] is told their positions
    [\[i, j)] (which may include members failing [only]).  By default
    every member is admitted.  Nothing is walked until {!next} is
    called. *)
val cursor :
  ?gate:(int -> int) ->
  ?only:(int -> bool) ->
  ?skipped:(int -> int -> unit) ->
  t ->
  cursor

(** The next admitted member, or [-1] once the walk is exhausted (and on
    every later call).  Allocates nothing when [gate] allocates
    nothing. *)
val next : cursor -> int

(** The admitted members not yet returned, ascending; exhausts the
    cursor. *)
val drain : cursor -> int list

(** [scan ?gate ?only ?skipped t f] — the {!cursor} walk, applying [f]
    to each admitted member until [f] accepts one: [true] at the first
    member [f] accepts, [false] when none does. *)
val scan :
  ?gate:(int -> int) ->
  ?only:(int -> bool) ->
  ?skipped:(int -> int -> unit) ->
  t ->
  (int -> bool) ->
  bool
