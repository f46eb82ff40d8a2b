(** Path summary / DataGuide (see path_summary.mli). *)

module Tree = Dolx_xml.Tree

type cls = int

type t = {
  tags : int array; (* class -> tag id *)
  parents : int array; (* class -> parent class, -1 for root *)
  children : cls list array; (* ascending *)
  extents : int array;
  span_lo : int array;
  span_hi : int array;
  leafy : bool array;
  cls_of : int array; (* data node -> class *)
  by_tag : (int, cls list) Hashtbl.t; (* tag -> classes, ascending *)
  n_leaf_paths : int;
}

module Itbl = Hashtbl.Make (Int)

let build tree =
  let n = Tree.size tree in
  let cls_of = Array.make n (-1) in
  (* a child class is keyed by (parent class + 1) * tag count + tag:
     one int per node, no tuple to allocate or hash *)
  let n_tags = Dolx_xml.Tag.count (Tree.tag_table tree) in
  let tbl : int Itbl.t = Itbl.create 1024 in
  let rev_tags = ref [] and rev_parents = ref [] in
  let n_cls = ref 0 in
  (* one preorder pass: a node's parent precedes it, so the parent's
     class is already assigned when the node is reached *)
  for v = 0 to n - 1 do
    let pc = if v = 0 then -1 else cls_of.(Tree.parent tree v) in
    let tg = Tree.tag tree v in
    let key = ((pc + 1) * n_tags) + tg in
    let c =
      match Itbl.find tbl key with
      | c -> c
      | exception Not_found ->
          let c = !n_cls in
          incr n_cls;
          Itbl.add tbl key c;
          rev_tags := tg :: !rev_tags;
          rev_parents := pc :: !rev_parents;
          c
    in
    cls_of.(v) <- c
  done;
  let m = !n_cls in
  let tags = Array.make m 0 and parents = Array.make m (-1) in
  List.iteri (fun i tg -> tags.(m - 1 - i) <- tg) !rev_tags;
  List.iteri (fun i p -> parents.(m - 1 - i) <- p) !rev_parents;
  let extents = Array.make m 0 in
  let span_lo = Array.make m max_int and span_hi = Array.make m (-1) in
  let leafy = Array.make m false in
  for v = 0 to n - 1 do
    let c = cls_of.(v) in
    extents.(c) <- extents.(c) + 1;
    if v < span_lo.(c) then span_lo.(c) <- v;
    if v > span_hi.(c) then span_hi.(c) <- v;
    if Tree.is_leaf tree v then leafy.(c) <- true
  done;
  let children = Array.make m [] in
  for c = m - 1 downto 1 do
    children.(parents.(c)) <- c :: children.(parents.(c))
  done;
  let by_tag = Hashtbl.create 64 in
  for c = m - 1 downto 0 do
    let cur = Option.value ~default:[] (Hashtbl.find_opt by_tag tags.(c)) in
    Hashtbl.replace by_tag tags.(c) (c :: cur)
  done;
  let n_leaf_paths =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 leafy
  in
  {
    tags;
    parents;
    children;
    extents;
    span_lo;
    span_hi;
    leafy;
    cls_of;
    by_tag;
    n_leaf_paths;
  }

let node_count t = Array.length t.tags

let leaf_path_count t = t.n_leaf_paths

let class_of t v = t.cls_of.(v)

let class_map t = t.cls_of

let tag t c : Dolx_xml.Tag.id = t.tags.(c)

let parent t c = t.parents.(c)

let children t c = t.children.(c)

let extent t c = t.extents.(c)

let span t c = (t.span_lo.(c), t.span_hi.(c))

let has_leaf t c = t.leafy.(c)

let classes_with_tag t (tg : Dolx_xml.Tag.id) =
  Option.value ~default:[] (Hashtbl.find_opt t.by_tag tg)

let bytes t =
  let m = node_count t in
  8
  * (Array.length t.cls_of (* node -> class map *)
    + (6 * m) (* tags/parents/extents/spans/leafy *)
    + m (* children list spine *)
    + (2 * Hashtbl.length t.by_tag))
