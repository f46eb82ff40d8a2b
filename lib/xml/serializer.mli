(** Serialize arena trees back to XML text. *)

(** Escape [&], [<], [>] in text content. *)
val escape_text : string -> string

(** Serialize the subtree rooted at [v] (default: the whole document).
    [indent]ed output is for humans; compact output round-trips through
    {!Parser.parse} up to insignificant whitespace. *)
val to_string : ?indent:bool -> ?v:Tree.node -> Tree.t -> string
