(** The epoch clock behind snapshot isolation (one per {!Disk}).

    Writers {!advance} the clock once per published update; readers
    {!pin} the current epoch for the duration of a query so the disk
    retains the page images that were live at that instant.  The
    {!horizon} (oldest pinned epoch, or the current epoch when nothing
    is pinned) is the retirement rule: versions visible only below it
    can never be read again. *)

type t

val create : unit -> t

val current : t -> int

(** Advance the clock (the publish point of an update); returns the new
    epoch. *)
val advance : t -> int

(** Pin the current epoch and return it; until the matching {!unpin},
    page versions visible at that epoch are retained. *)
val pin : t -> int

(** Add one more pin to epoch [e], which must already be pinned (a
    reader taken from a pinned reader shares its epoch); released by
    {!unpin} like any other.
    @raise Invalid_argument when [e] is not currently pinned. *)
val repin : t -> int -> unit

(** Release one pin on epoch [e].
    @raise Invalid_argument when [e] is not currently pinned. *)
val unpin : t -> int -> unit

(** Is any epoch pinned right now? *)
val pinned : t -> bool

val pin_count : t -> int

(** Oldest pinned epoch, or [current] when nothing is pinned. *)
val horizon : t -> int
