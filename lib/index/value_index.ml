(** Value index: every non-empty-text node in one array sorted by
    (tag, text, preorder), so a (tag, value) key's postings are one
    contiguous slice — exact, with no hash bucket to re-verify. *)

module Tree = Dolx_xml.Tree

type t = { tree : Tree.t; nodes : int array }

(* Order of node [v]'s key against (tag, value). *)
let compare_key tree v tag value =
  let c = Int.compare (Tree.tag tree v) tag in
  if c <> 0 then c else String.compare (Tree.text tree v) value

let build tree =
  let texts = Tree.fold (fun acc v -> if Tree.text tree v = "" then acc else v :: acc) [] tree in
  let nodes = Array.of_list (List.rev texts) in
  (* stable: equal keys keep document order *)
  Array.stable_sort (fun u v -> compare_key tree u (Tree.tag tree v) (Tree.text tree v)) nodes;
  { tree; nodes }

let postings t tag ~value =
  let n = Array.length t.nodes in
  let cmp i = compare_key t.tree t.nodes.(i) tag value in
  let first = Postings.bisect 0 n (fun i -> cmp i >= 0) in
  Postings.slice t.nodes first (Postings.bisect first n (fun i -> cmp i > 0))

let postings_in t tag ~value ~lo ~hi = Postings.narrow (postings t tag ~value) ~lo ~hi
