(** Arena-encoded ordered XML trees.

    A node is identified with its preorder rank (= document order, paper
    §2), so "document-order predecessor of [v]" is just [v - 1] and the
    subtree rooted at [v] is the contiguous range [v, v + size v).  All
    structure lives in flat int arrays:

    - [tags.(v)]          interned element name
    - [parents.(v)]       parent preorder, -1 for the root
    - [first_childs.(v)]  first child preorder, -1 if leaf
    - [next_siblings.(v)] following sibling preorder, -1 if last child
    - [sizes.(v)]         number of nodes in v's subtree (including v)
    - [texts.(v)]         concatenated text content directly under v ("")

    These are exactly the primitive accesses NoK navigation needs
    (FIRST-CHILD and FOLLOWING-SIBLING, paper Algorithm 1), and the layout
    mirrors the succinct document-order string "(a(b)(c)…)" of §3.1. *)

module Int_vec = Dolx_util.Int_vec

type node = int

let nil : node = -1

type t = {
  tag_table : Tag.table;
  tags : int array;
  parents : int array;
  first_childs : int array;
  next_siblings : int array;
  sizes : int array;
  texts : string array;
}

type tree = t

let size t = Array.length t.tags

let root : node = 0

let check t v =
  if v < 0 || v >= size t then invalid_arg "Tree: node out of range"

let tag t v = check t v; t.tags.(v)
let tag_name t v = Tag.name t.tag_table (tag t v)
let parent t v = check t v; t.parents.(v)
let first_child t v = check t v; t.first_childs.(v)
let next_sibling t v = check t v; t.next_siblings.(v)
let subtree_size t v = check t v; t.sizes.(v)
let text t v = check t v; t.texts.(v)
let tag_table t = t.tag_table
let parents t = t.parents
let subtree_sizes t = t.sizes

(** Preorder of the last node in v's subtree. *)
let subtree_end t v = v + subtree_size t v - 1

let is_leaf t v = first_child t v = nil

(** [is_ancestor t a d]: is [a] a proper ancestor of [d]?  O(1) via the
    preorder-interval containment test. *)
let is_ancestor t a d = a < d && d <= subtree_end t a

let depth t v =
  let rec go v acc = if v = nil then acc - 1 else go t.parents.(v) (acc + 1) in
  go v 0

let children t v =
  let rec go c acc = if c = nil then List.rev acc else go t.next_siblings.(c) (c :: acc) in
  go (first_child t v) []

let iter_children f t v =
  let c = ref (first_child t v) in
  while !c <> nil do
    f !c;
    c := t.next_siblings.(!c)
  done

(** Document-order (preorder) iteration over the whole tree. *)
let iter f t =
  for v = 0 to size t - 1 do
    f v
  done

(** Iterate the subtree of [v] in document order. *)
let iter_subtree f t v =
  let last = subtree_end t v in
  for u = v to last do
    f u
  done

let fold f init t =
  let acc = ref init in
  for v = 0 to size t - 1 do
    acc := f !acc v
  done;
  !acc

(** Number of close-parens emitted immediately after node [v] in the
    compacted NoK document-order string (open parens are elided, §3.1
    footnote): the number of subtrees that end exactly at [v]. *)
let closes_after t v =
  let rec go u acc =
    if u = nil then acc
    else if subtree_end t u = v then go t.parents.(u) (acc + 1)
    else acc
  in
  go v 0

(** {1 Building} *)

module Builder = struct
  (* SAX-style construction: [open_element]/[close_element] pairs in
     document order, O(total nodes) with an explicit ancestor stack. *)
  type builder = {
    table : Tag.table;
    tags : Int_vec.t;
    parents : Int_vec.t;
    first_childs : Int_vec.t;
    next_siblings : Int_vec.t;
    sizes : Int_vec.t;
    mutable texts : (int * string) list; (* sparse, reversed *)
    mutable stack : int list;            (* open ancestors, innermost first *)
    mutable last_closed : int;           (* preceding sibling candidate *)
    mutable finished : bool;
  }

  and t = builder

  let create ?table () =
    let table = match table with Some t -> t | None -> Tag.create () in
    {
      table;
      tags = Int_vec.create ();
      parents = Int_vec.create ();
      first_childs = Int_vec.create ();
      next_siblings = Int_vec.create ();
      sizes = Int_vec.create ();
      texts = [];
      stack = [];
      last_closed = nil;
      finished = false;
    }

  let tag_table b = b.table

  let open_element b name =
    if b.finished then invalid_arg "Builder: document already finished";
    if b.stack = [] && Int_vec.length b.tags > 0 then
      invalid_arg "Builder: multiple roots";
    let v = Int_vec.length b.tags in
    let tag_id = Tag.intern b.table name in
    Int_vec.push b.tags tag_id;
    Int_vec.push b.sizes 0;
    Int_vec.push b.first_childs nil;
    Int_vec.push b.next_siblings nil;
    (match b.stack with
    | [] -> Int_vec.push b.parents nil
    | p :: _ ->
        Int_vec.push b.parents p;
        if Int_vec.get b.first_childs p = nil then Int_vec.set b.first_childs p v);
    if b.last_closed <> nil then Int_vec.set b.next_siblings b.last_closed v;
    b.stack <- v :: b.stack;
    b.last_closed <- nil;
    v

  let close_element b =
    match b.stack with
    | [] -> invalid_arg "Builder: close without open"
    | v :: rest ->
        let next = Int_vec.length b.tags in
        Int_vec.set b.sizes v (next - v);
        b.stack <- rest;
        b.last_closed <- v;
        if rest = [] then b.finished <- true

  let add_text b s =
    match b.stack with
    | [] -> invalid_arg "Builder: text outside the root element"
    | v :: _ -> if s <> "" then b.texts <- (v, s) :: b.texts

  (** Convenience: a whole leaf element with text content. *)
  let leaf b name txt =
    let v = open_element b name in
    if txt <> "" then add_text b txt;
    close_element b;
    v

  let finish b =
    if b.stack <> [] then invalid_arg "Builder: unclosed elements remain";
    if Int_vec.length b.tags = 0 then invalid_arg "Builder: empty document";
    let n = Int_vec.length b.tags in
    let texts = Array.make n "" in
    List.iter (fun (v, s) -> texts.(v) <- s ^ texts.(v)) b.texts;
    {
      tag_table = b.table;
      tags = Int_vec.to_array b.tags;
      parents = Int_vec.to_array b.parents;
      first_childs = Int_vec.to_array b.first_childs;
      next_siblings = Int_vec.to_array b.next_siblings;
      sizes = Int_vec.to_array b.sizes;
      texts;
    }
end

(** Build a tree from a nested description, for tests and examples. *)
type spec = El of string * spec list | Elt of string * string * spec list

let of_spec ?table spec =
  let b = Builder.create ?table () in
  let rec go = function
    | El (name, kids) ->
        ignore (Builder.open_element b name);
        List.iter go kids;
        Builder.close_element b
    | Elt (name, txt, kids) ->
        ignore (Builder.open_element b name);
        Builder.add_text b txt;
        List.iter go kids;
        Builder.close_element b
  in
  go spec;
  Builder.finish b

(** {1 Structural edits (functional)}

    Arena trees are immutable; structural updates produce a new arena by
    replaying the document through a builder — O(n), one pass.  The DOL
    counterparts ([Dolx_core.Update.dol_delete] / [dol_insert]) take the
    matching preorder positions. *)

(* Replay [tree] into [b], except: subtree [skip] is omitted, and after
   emitting child [after_sib] of [parent] (or before [parent]'s first
   child when [after_sib] = nil) the whole of [inject] is emitted.
   Returns the preorder the injected root landed on, if any. *)
let replay b tree ~skip ~inject_at ~inject =
  let injected = ref nil in
  let emit_inject () =
    match inject with
    | None -> ()
    | Some sub ->
        let rec copy u =
          let v' = Builder.open_element b (tag_name sub u) in
          if !injected = nil && u = root then injected := v';
          let txt = text sub u in
          if txt <> "" then Builder.add_text b txt;
          iter_children (fun c -> copy c) sub u;
          Builder.close_element b
        in
        copy root
  in
  let rec copy v =
    if v <> skip then begin
      ignore (Builder.open_element b (tag_name tree v));
      let txt = text tree v in
      if txt <> "" then Builder.add_text b txt;
      (match inject_at with
      | Some (parent, after_sib) when parent = v && after_sib = nil -> emit_inject ()
      | _ -> ());
      iter_children
        (fun c ->
          copy c;
          match inject_at with
          | Some (_, after_sib) when after_sib = c -> emit_inject ()
          | _ -> ())
        tree v;
      Builder.close_element b
    end
  in
  copy root;
  !injected

(** Remove the subtree rooted at [v]; returns the new tree.
    @raise Invalid_argument when [v] is the root. *)
let remove_subtree tree v =
  check tree v;
  if v = root then invalid_arg "Tree.remove_subtree: cannot remove the root";
  let b = Builder.create ~table:tree.tag_table () in
  ignore (replay b tree ~skip:v ~inject_at:None ~inject:None);
  Builder.finish b

(** Insert [sub] (a whole document) as a child of [parent], directly
    after sibling [after] ([nil] = as the first child).  Returns the new
    tree and the preorder its root landed on.
    @raise Invalid_argument when [after] is not a child of [parent]. *)
let insert_subtree tree ~parent ~after sub =
  check tree parent;
  if after <> nil && (check tree after; tree.parents.(after) <> parent) then
    invalid_arg "Tree.insert_subtree: after is not a child of parent";
  let b = Builder.create ~table:tree.tag_table () in
  let pos = replay b tree ~skip:nil ~inject_at:(Some (parent, after)) ~inject:(Some sub) in
  (Builder.finish b, pos)

(** The compacted document-order structure string of §3.1, e.g.
    "a(b)(c)(d)(e(f)…)" — useful in tests and debugging. *)
let structure_string t =
  let buf = Buffer.create (4 * size t) in
  let rec go v =
    Buffer.add_string buf (tag_name t v);
    iter_children
      (fun c ->
        Buffer.add_char buf '(';
        go c;
        Buffer.add_char buf ')')
      t v
  in
  go root;
  Buffer.contents buf

(** Internal consistency check used by property tests. *)
let validate t =
  let n = size t in
  if n = 0 then failwith "empty tree";
  if t.parents.(0) <> nil then failwith "root has a parent";
  for v = 0 to n - 1 do
    let sz = t.sizes.(v) in
    if sz < 1 || v + sz > n then failwith "bad subtree size";
    let p = t.parents.(v) in
    if v > 0 then begin
      if p = nil then failwith "multiple roots";
      if not (is_ancestor t p v) then failwith "parent interval violation"
    end;
    let fc = t.first_childs.(v) in
    if fc <> nil && fc <> v + 1 then failwith "first child must follow in preorder";
    if fc = nil && sz <> 1 then failwith "leaf with size > 1";
    let ns = t.next_siblings.(v) in
    if ns <> nil then begin
      if ns <> v + sz then failwith "next sibling must follow subtree";
      if t.parents.(ns) <> p then failwith "sibling parent mismatch"
    end
  done
