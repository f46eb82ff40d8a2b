(** Structural joins on the ancestor–descendant relationship.

    [stack_tree_desc] is the classic Stack-Tree-Desc algorithm of
    Al-Khalifa et al. (ICDE 2002), which the paper builds on ("we
    developed a secure structural join algorithm based on the widely
    accepted Stack Tree Desc (STD) algorithm", §4.2).

    The secure variants implement ε-STD for the path semantics of §4.2
    (Gabillon–Bruno): a join pair (a, d) survives only if every node on
    the path from [a] down to [d] is accessible.

    - [secure_stack_tree_desc_naive] re-walks the ancestor chain for
      every candidate pair, with a per-join accessibility memo.  Its page
      access pattern is what the paper warns about: "the nodes between
      the ancestors and descendants are not necessarily clustered on the
      same physical pages as the NoK subtrees, so this checking may
      involve lots of page reads".
    - [secure_stack_tree_desc] is the optimized algorithm in the spirit
      of the paper's technical-report variant [18]: path accessibility is
      computed incrementally on the STD stack, so every tree edge on a
      candidate path is examined (and its page touched) at most once per
      join — "only load each page once if necessary, regardless of the
      accessibility distribution".

    Every variant walks a connecting path with {!Store.path_clear}.  The
    page patterns above are those of the paper's store; with the run
    index on, the walk decides each path node from the runs and reads no
    page. *)

module Store = Dolx_core.Secure_store
module Tree = Dolx_xml.Tree

(** Stack-Tree-Desc over sorted (document-order) candidate lists.
    [alist] are potential ancestors, [dlist] potential descendants;
    returns all pairs (a, d) with [a] a proper ancestor of [d], grouped
    by descendant, innermost ancestor first within a group. *)
let stack_tree_desc store ~alist ~dlist =
  let a = Array.of_list alist and d = Array.of_list dlist in
  let na = Array.length a and nd = Array.length d in
  let stack = ref [] in
  let out = ref [] in
  let ai = ref 0 and di = ref 0 in
  let pop_finished v =
    let rec go = function
      | top :: rest when not (Store.is_ancestor store top v) -> go rest
      | s -> s
    in
    stack := go !stack
  in
  while !di < nd do
    if !ai < na && a.(!ai) < d.(!di) then begin
      pop_finished a.(!ai);
      stack := a.(!ai) :: !stack;
      incr ai
    end
    else begin
      let dv = d.(!di) in
      pop_finished dv;
      (* every remaining stack entry is an ancestor of dv *)
      List.iter (fun av -> if av <> dv then out := (av, dv) :: !out) !stack;
      incr di
    end
  done;
  List.rev !out

(* Shared accessibility memo: each node is fetched and checked at most
   once per join. *)
let make_checker store ~subject =
  let memo = Hashtbl.create 256 in
  fun v ->
    match Hashtbl.find_opt memo v with
    | Some b -> b
    | None ->
        Store.touch store v;
        let b = Store.accessible store ~subject v in
        Hashtbl.replace memo v b;
        b

(* Are all nodes strictly between ancestor [a] and descendant [d]
   accessible?  ([a] and [d] themselves were checked when their NoK
   fragments matched.) *)
let pair_clear store ~subject ~check (a, d) =
  Store.path_clear store ~subject ~check ~top:a (Store.parent store d)

(** ε-STD, unmemoized: the straw-man the paper warns about — every pair
    re-walks its connecting path against the store, so a node shared by
    many pairs is fetched and checked over and over ("this checking may
    involve lots of page reads", §4.2). *)
let secure_stack_tree_desc_unmemoized store ~subject ~alist ~dlist =
  let check v =
    Store.touch store v;
    Store.accessible store ~subject v
  in
  List.filter (pair_clear store ~subject ~check) (stack_tree_desc store ~alist ~dlist)

(** ε-STD, naive: filter STD pairs by re-walking each connecting path. *)
let secure_stack_tree_desc_naive store ~subject ~alist ~dlist =
  let check = make_checker store ~subject in
  List.filter (pair_clear store ~subject ~check) (stack_tree_desc store ~alist ~dlist)

(** ε-STD, stack-cached: each stack entry carries whether the path
    segment from the entry below it (exclusive) up to and including
    itself is fully accessible; a pair (entry, d) is then decided by one
    running conjunction instead of a chain walk per pair. *)
let secure_stack_tree_desc store ~subject ~alist ~dlist =
  let check = make_checker store ~subject in
  (* seg_acc: all nodes on the path from this entry's node (inclusive)
     up to — but excluding — the node of the entry below it are
     accessible.  For the bottom entry only the node itself counts. *)
  let a = Array.of_list alist and d = Array.of_list dlist in
  let na = Array.length a and nd = Array.length d in
  let stack = ref [] (* (node, seg_acc) list, top = deepest *) in
  let out = ref [] in
  let ai = ref 0 and di = ref 0 in
  let pop_finished v =
    let rec go = function
      | (top, _) :: rest when not (Store.is_ancestor store top v) -> go rest
      | s -> s
    in
    stack := go !stack
  in
  let clear ~top v = Store.path_clear store ~subject ~check ~top v in
  while !di < nd do
    if !ai < na && a.(!ai) < d.(!di) then begin
      let av = a.(!ai) in
      pop_finished av;
      (* The segment verdict is lazy: it is paid for only if some
         descendant actually joins below this entry, so an ancestor that
         never participates in a pair costs nothing.  The segment runs
         from the entry's own node up to the entry below it; for the
         bottom entry it is the node alone. *)
      let seg =
        let top = match !stack with (below, _) :: _ -> below | [] -> Store.parent store av in
        lazy (clear ~top av)
      in
      stack := (av, seg) :: !stack;
      incr ai
    end
    else begin
      let dv = d.(!di) in
      pop_finished dv;
      (match !stack with
      | [] -> ()
      | (top, _) :: _ ->
          let ok = ref (clear ~top (Store.parent store dv)) in
          let rec emit = function
            | [] -> ()
            | (node, seg) :: rest ->
                if !ok then begin
                  if node <> dv then out := (node, dv) :: !out;
                  (* crossing this entry costs its own node + segment —
                     paid only if an entry further down exists; once the
                     path is broken, every deeper pair is broken too, so
                     stop without forcing the remaining segments *)
                  match rest with
                  | [] -> ()
                  | _ ->
                      ok := Lazy.force seg;
                      emit rest
                end
          in
          emit !stack);
      incr di
    end
  done;
  List.rev !out

(** Semi-join views used by the evaluation pipeline. *)

let descendants_of_pairs pairs = List.sort_uniq compare (List.map snd pairs)
