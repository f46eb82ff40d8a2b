(** DataGuide class analysis of a twig pattern (see summary_prune.mli).

    Two passes over the pattern tree.  Top-down: a node's set is the
    axis-expansion of its parent's set intersected with its tag test
    (classes are reached top-down, so summary adjacency — parents always
    smaller than children — lets child/descendant closures run in one
    array sweep).  Bottom-up: a class survives only if every child
    pattern edge has a witness class in the child's set under the edge's
    axis.  Both passes relax value tests and sibling order, keeping the
    result a superset of the truth. *)

module Ps = Dolx_index.Path_summary
module Tag = Dolx_xml.Tag

type t = {
  ps : Ps.t;
  sets : (int, bool array) Hashtbl.t; (* pattern-node id -> classes *)
  mutable pruned : int;
}

let count_set s =
  let n = ref 0 in
  Array.iter (fun b -> if b then incr n) s;
  !n

let analyze ~table ps (pattern : Pattern.t) =
  let m = Ps.node_count ps in
  let sets = Hashtbl.create 16 in
  let t = { ps; sets; pruned = 0 } in
  let tag_set (test : Pattern.test) =
    let s = Array.make m false in
    (match test with
    | Pattern.Wildcard -> Array.fill s 0 m true
    | Pattern.Tag name -> (
        match Tag.find_opt table name with
        | Some id -> List.iter (fun c -> s.(c) <- true) (Ps.classes_with_tag ps id)
        | None -> ()));
    s
  in
  let children_of src =
    let s = Array.make m false in
    for c = 0 to m - 1 do
      if src.(c) then List.iter (fun d -> s.(d) <- true) (Ps.children ps c)
    done;
    s
  in
  (* classes with a PROPER ancestor in [src]; parents precede children,
     so one ascending sweep closes the relation *)
  let descendants_of src =
    let s = Array.make m false in
    for c = 1 to m - 1 do
      let p = Ps.parent ps c in
      if src.(p) || s.(p) then s.(c) <- true
    done;
    s
  in
  (* classes sharing a parent with some class in [src]; sibling order is
     not tracked by the summary, so this includes preceding siblings and
     the class itself — conservative *)
  let siblings_of src =
    let s = Array.make m false in
    for c = 0 to m - 1 do
      if src.(c) then begin
        let p = Ps.parent ps c in
        if p >= 0 then List.iter (fun d -> s.(d) <- true) (Ps.children ps p)
      end
    done;
    s
  in
  let rec down (p : Pattern.pnode) parent_set =
    let base = tag_set p.Pattern.test in
    let s =
      match parent_set with
      | None -> (
          (* the pattern root attaches to the document *)
          match p.Pattern.axis with
          | Pattern.Child ->
              (* binds the document root: class 0 only *)
              let s = Array.make m false in
              if m > 0 then s.(0) <- base.(0);
              s
          | Pattern.Descendant -> base
          | Pattern.Following_sibling -> base (* rejected by the engine *))
      | Some ps_set ->
          let reach =
            match p.Pattern.axis with
            | Pattern.Child -> children_of ps_set
            | Pattern.Descendant -> descendants_of ps_set
            | Pattern.Following_sibling -> siblings_of ps_set
          in
          for c = 0 to m - 1 do
            reach.(c) <- reach.(c) && base.(c)
          done;
          reach
    in
    Hashtbl.replace sets p.Pattern.id s;
    List.iter (fun q -> down q (Some s)) p.Pattern.children;
    (* bottom-up: keep only classes with a witness for every child edge *)
    List.iter
      (fun (q : Pattern.pnode) ->
        let qs = Hashtbl.find sets q.Pattern.id in
        let ok =
          match q.Pattern.axis with
          | Pattern.Child ->
              let ok = Array.make m false in
              for d = 1 to m - 1 do
                if qs.(d) then ok.(Ps.parent ps d) <- true
              done;
              ok
          | Pattern.Descendant ->
              (* classes with a proper descendant in qs: descending sweep *)
              let ok = Array.make m false in
              for d = m - 1 downto 1 do
                if qs.(d) || ok.(d) then ok.(Ps.parent ps d) <- true
              done;
              ok
          | Pattern.Following_sibling ->
              let ok = Array.make m false in
              for d = 0 to m - 1 do
                if qs.(d) then begin
                  let p = Ps.parent ps d in
                  if p >= 0 then
                    List.iter (fun e -> ok.(e) <- true) (Ps.children ps p)
                end
              done;
              ok
        in
        for c = 0 to m - 1 do
          if s.(c) && not ok.(c) then s.(c) <- false
        done)
      p.Pattern.children;
    t.pruned <- t.pruned + (count_set base - count_set s)
  in
  down pattern.Pattern.root None;
  t

let classes t (p : Pattern.pnode) =
  match Hashtbl.find_opt t.sets p.Pattern.id with
  | Some s -> s
  | None -> invalid_arg "Summary_prune.classes: node not in analyzed pattern"

let empty_for t p = not (Array.exists Fun.id (classes t p))

let drop_dead_spans t ~dead =
  let dropped = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      Array.iteri
        (fun c b ->
          if b then begin
            let lo, hi = Ps.span t.ps c in
            if dead ~lo ~hi then begin
              s.(c) <- false;
              incr dropped
            end
          end)
        s)
    t.sets;
  t.pruned <- t.pruned + !dropped;
  !dropped

let pruned_classes t = t.pruned
