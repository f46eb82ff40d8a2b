(** DataGuide class analysis of a twig pattern (see summary_prune.mli).

    Two passes over the pattern tree, each touching only the classes a
    set can hold.  Top-down: a node's set is its tag's classes
    ([Ps.classes_with_tag], every class for a wildcard) that stand in
    the node's axis relation to a class of its parent's set, decided by
    a walk up the candidate's summary parent chain.  Bottom-up: a class
    survives only if every child pattern edge has a witness class in the
    child's set under the edge's axis; the witnesses' parent chains are
    marked first, so each survivor check is one flag test.  Both passes
    relax value tests and sibling order, keeping the result a superset
    of the truth. *)

module Ps = Dolx_index.Path_summary
module Tag = Dolx_xml.Tag

(* One byte per class: O(1) membership for an m-byte fill, with no
   per-class sweep. *)
let flags_create m = Bytes.make m '\000'

let mem b c = Bytes.get b c <> '\000'

let flag b c on = Bytes.set b c (if on then '\001' else '\000')

(* An admissible-class set: its members ascending, and their flags. *)
type set = { mutable members : int array; flags : Bytes.t }

type t = {
  ps : Ps.t;
  sets : (int, set) Hashtbl.t; (* pattern-node id -> set *)
  mutable pruned : int;
}

(* Keep the members satisfying [keep], asked once each; clear the
   others' flags.  Returns the number dropped. *)
let restrict s keep =
  let n = Array.length s.members in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let c = s.members.(i) in
    if keep c then begin
      s.members.(!k) <- c;
      incr k
    end
    else flag s.flags c false
  done;
  if !k < n then s.members <- Array.sub s.members 0 !k;
  n - !k

let analyze ~table ps (pattern : Pattern.t) =
  let m = Ps.node_count ps in
  let sets = Hashtbl.create 16 in
  let t = { ps; sets; pruned = 0 } in
  let parent c = Ps.parent ps c in
  (* the tag test's classes, ascending *)
  let base (test : Pattern.test) =
    match test with
    | Pattern.Wildcard -> List.init m Fun.id
    | Pattern.Tag name -> (
        match Tag.find_opt table name with
        | Some id -> Ps.classes_with_tag ps id
        | None -> [])
  in
  (* does [c] have a proper ancestor in [src]? *)
  let rec below src c =
    let p = parent c in
    p >= 0 && (mem src.flags p || below src p)
  in
  (* does [c] share a parent with some class of [src]?  Sibling order is
     not tracked by the summary, so this admits preceding siblings and
     the class itself — conservative *)
  let beside src c =
    let p = parent c in
    p >= 0 && List.exists (mem src.flags) (Ps.children ps p)
  in
  let rec down (p : Pattern.pnode) parent_set =
    let base = base p.Pattern.test in
    let admitted =
      match (parent_set, p.Pattern.axis) with
      (* the pattern root attaches to the document: a child step binds
         the document root, class 0 only *)
      | None, Pattern.Child -> List.filter (fun c -> c = 0) base
      | None, (Pattern.Descendant | Pattern.Following_sibling) -> base
      | Some src, Pattern.Child ->
          List.filter (fun c -> parent c >= 0 && mem src.flags (parent c)) base
      | Some src, Pattern.Descendant -> List.filter (below src) base
      | Some src, Pattern.Following_sibling -> List.filter (beside src) base
    in
    let flags = flags_create m in
    List.iter (fun c -> flag flags c true) admitted;
    let s = { members = Array.of_list admitted; flags } in
    Hashtbl.replace sets p.Pattern.id s;
    List.iter (fun q -> down q (Some s)) p.Pattern.children;
    (* bottom-up: keep only classes with a witness for every child edge *)
    List.iter
      (fun (q : Pattern.pnode) ->
        let qs = Hashtbl.find sets q.Pattern.id in
        let witnessed = flags_create m in
        let mark c = if c >= 0 then flag witnessed c true in
        (match q.Pattern.axis with
        | Pattern.Child | Pattern.Following_sibling ->
            Array.iter (fun d -> mark (parent d)) qs.members
        | Pattern.Descendant ->
            (* every proper ancestor of a witness; a marked class's
               ancestors are marked already *)
            let rec up c =
              if c >= 0 && not (mem witnessed c) then begin
                mark c;
                up (parent c)
              end
            in
            Array.iter (fun d -> up (parent d)) qs.members);
        let ok =
          match q.Pattern.axis with
          | Pattern.Child | Pattern.Descendant -> mem witnessed
          | Pattern.Following_sibling ->
              (* a sibling of a witness: its parent is a witness's parent *)
              fun c -> parent c >= 0 && mem witnessed (parent c)
        in
        ignore (restrict s ok))
      p.Pattern.children;
    (* a node's count is its tag's classes less its set *)
    t.pruned <- t.pruned + (List.length base - Array.length s.members)
  in
  down pattern.Pattern.root None;
  t

let set t (p : Pattern.pnode) =
  match Hashtbl.find_opt t.sets p.Pattern.id with
  | Some s -> s
  | None -> invalid_arg "Summary_prune: node not in analyzed pattern"

let classes t p = (set t p).flags

let cardinal t p = Array.length (set t p).members

let empty_for t p = cardinal t p = 0

let hull t p =
  Array.fold_left
    (fun (lo, hi) c ->
      let l, h = Ps.span t.ps c in
      (min lo l, max hi h))
    (max_int, -1) (set t p).members

let drop_dead_spans t ~dead =
  let dropped = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      let live c =
        let lo, hi = Ps.span t.ps c in
        not (dead ~lo ~hi)
      in
      dropped := !dropped + restrict s live)
    t.sets;
  t.pruned <- t.pruned + !dropped;
  !dropped

let pruned_classes t = t.pruned
