(** Binary-search helpers over sorted int arrays — predecessor search is
    the core of DOL lookups (paper §3.3) and of the in-memory page
    table. *)

(** [predecessor keys x] is the greatest index [i] with [keys.(i) <= x],
    or [None] if every key exceeds [x].  [keys] must be sorted
    ascending. *)
val predecessor : int array -> int -> int option

(** [successor keys x] is the least index [i] with [keys.(i) >= x]. *)
val successor : int array -> int -> int option

(** Index of [x] in sorted [keys], if present. *)
val find : int array -> int -> int option
