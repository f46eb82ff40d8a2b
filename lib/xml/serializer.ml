(** Serialize arena trees back to XML text. *)

let escape_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Serialize the subtree rooted at [v] (default: whole document).
    [indent]ed output is for humans; compact output round-trips through
    {!Parser.parse} except for insignificant whitespace. *)
let to_string ?(indent = false) ?(v = Tree.root) tree =
  let buf = Buffer.create 1024 in
  let rec go v level =
    if indent then begin
      if v <> Tree.root then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ')
    end;
    let name = Tree.tag_name tree v in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    let txt = Tree.text tree v in
    if Tree.is_leaf tree v && txt = "" then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      if txt <> "" then Buffer.add_string buf (escape_text txt);
      Tree.iter_children (fun c -> go c (level + 1)) tree v;
      if indent && not (Tree.is_leaf tree v) then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * level) ' ')
      end;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end
  in
  go v 0;
  Buffer.contents buf
