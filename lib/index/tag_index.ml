(** Tag index as CSR arrays: [nodes] holds every preorder grouped by
    tag, and tag [t]'s postings are
    [nodes.(offsets.(t) .. offsets.(t + 1) - 1)]. *)

module Tree = Dolx_xml.Tree

type t = { offsets : int array; nodes : int array }

let build tree =
  let n = Tree.size tree in
  let n_tags = Tree.fold (fun m v -> max m (Tree.tag tree v + 1)) 0 tree in
  let offsets = Array.make (n_tags + 1) 0 in
  for v = 0 to n - 1 do
    let tag = Tree.tag tree v in
    offsets.(tag + 1) <- offsets.(tag + 1) + 1
  done;
  for tag = 1 to n_tags do
    offsets.(tag) <- offsets.(tag) + offsets.(tag - 1)
  done;
  (* preorders ascend, so each tag's segment fills in document order *)
  let fill = Array.sub offsets 0 n_tags in
  let nodes = Array.make n 0 in
  for v = 0 to n - 1 do
    let tag = Tree.tag tree v in
    nodes.(fill.(tag)) <- v;
    fill.(tag) <- fill.(tag) + 1
  done;
  { offsets; nodes }

(* A tag the tree's shared table interned after this index was built
   (e.g. by [Tree.insert_subtree]) has no postings here. *)
let postings t tag =
  if tag < 0 || tag >= Array.length t.offsets - 1 then Postings.empty
  else Postings.slice t.nodes t.offsets.(tag) t.offsets.(tag + 1)

let postings_in t tag ~lo ~hi = Postings.narrow (postings t tag) ~lo ~hi

let count t tag = Postings.length (postings t tag)
