(** NoK pattern matching against the secured store, secure (ε-NoK,
    Algorithm 1) and unsecured.

    Evaluation modes:
    - [Insecure]: the plain NoK evaluator — no access checks.
    - [Secure subject]: ε-NoK — every node is checked as it is visited
      ("a node's accessibility is checked immediately after it is loaded
      (by FIRST-CHILD or FOLLOWING-SIBLING)", §4.1), with the in-memory
      page-header check of §3.3 first, so a page provably fully
      inaccessible is never loaded; inaccessible nodes are skipped
      together with their subtrees, which implements the
      binding-elimination semantics of Cho et al. for NoK (child-edge)
      patterns. *)

module Store = Dolx_core.Secure_store
module Tree = Dolx_xml.Tree
module Tag = Dolx_xml.Tag
module Tag_index = Dolx_index.Tag_index
module Value_index = Dolx_index.Value_index
module Postings = Dolx_index.Postings
module Path_summary = Dolx_index.Path_summary

(** Evaluation mode.  [subject = None] disables access control;
    [path_semantics] switches predicate evaluation to the Gabillon–Bruno
    semantics, where descendant steps additionally require every node on
    the connecting path to be accessible. *)
type mode = { subject : int option; path_semantics : bool }

let insecure = { subject = None; path_semantics = false }

let secure ?(path_semantics = false) subject =
  { subject = Some subject; path_semantics }

let subject_of mode = mode.subject

(** Visit node [v]: fetch its page (accounted I/O, or skipped when the
    page header proves it fully inaccessible) and check access.  Returns
    whether evaluation may bind or traverse [v]. *)
let visit store mode v =
  match mode.subject with
  | None ->
      Store.touch store v;
      true
  | Some s -> Store.accessible_with_skip store ~subject:s v

(** Under path semantics: are all nodes strictly between [ctx] and its
    descendant [u] accessible?  (Both endpoints are checked by [visit]
    at their own binding sites.)  {!Store.path_clear} walks the path,
    with [visit] as the check when the run index is off.  Applied to
    [store mode] alone, it builds that check once for every later
    call. *)
let path_clear store mode =
  match mode.subject with
  | Some s when mode.path_semantics ->
      let check = visit store mode in
      fun ~ctx u -> Store.path_clear store ~subject:s ~check ~top:ctx (Store.parent store u)
  | _ -> fun ~ctx:_ _ -> true

let test_ok store (test : Pattern.test) v =
  match test with
  | Pattern.Wildcard -> true
  | Pattern.Tag name -> (
      let table = Tree.tag_table (Store.tree store) in
      match Tag.find_opt table name with
      | Some id -> Store.tag store v = id
      | None -> false)

let value_ok store (value : string option) v =
  match value with None -> true | Some s -> Store.text store v = s

(** The postings of [p]'s test: the value slice when [p] also constrains
    the node's text and a value index is given, else the tag slice;
    every preorder for a wildcard. *)
let postings ?value_index store index (p : Pattern.pnode) =
  let tree = Store.tree store in
  match p.Pattern.test with
  | Pattern.Wildcard -> Postings.span 0 (Tree.size tree - 1)
  | Pattern.Tag name -> (
      match Tag.find_opt (Tree.tag_table tree) name with
      | None -> Postings.empty
      | Some id -> (
          match (p.Pattern.value, value_index) with
          | Some value, Some vi -> Value_index.postings vi id ~value
          | _ -> Tag_index.postings index id))

(** {1 The gated candidate walk} *)

(* Deliberate fault site for the differential fuzzer's self-test: when
   armed, every run-gated walk silently drops node 2, so secure answers
   lose it while the runs-off path keeps it.  Armed only via
   DOLX_FUZZ_PLANT_BUG=prune; tests may toggle the ref. *)
let planted_bug = ref (Sys.getenv_opt "DOLX_FUZZ_PLANT_BUG" = Some "prune")

type walk = {
  w_postings : Postings.t;
  w_nodes : int array;
  w_first : int;
  mutable w_i : int;
  w_stop : int;
  w_filter : (int array * Bytes.t) option;
  w_store : Store.t;
  w_subject : int;
  w_gate : Store.segment;
  w_seg : Store.segment;
  w_drop2 : bool;
  mutable w_pruned : int;
}

let walk ?classes store mode postings =
  let nodes, first, stop = Postings.members postings in
  let subject =
    match mode.subject with Some s when Store.run_index_enabled store -> s | _ -> -1
  in
  {
    w_postings = postings;
    w_nodes = nodes;
    w_first = first;
    w_i = first;
    w_stop = stop;
    w_filter =
      Option.map (fun a -> (Path_summary.class_map (Store.path_summary store), a)) classes;
    w_store = store;
    w_subject = subject;
    w_gate = Store.segment ();
    w_seg = Store.segment ();
    w_drop2 = subject >= 0 && !planted_bug;
    w_pruned = 0;
  }

(* The member at position [i]: a span's positions are its members.
   This and [admits] run per posting: the default build would call
   both without [@inline], about 10% of a Q4-Q6 summary-path drain. *)
let[@inline] member w i = if Array.length w.w_nodes = 0 then i else w.w_nodes.(i)

let[@inline] admits w v =
  match w.w_filter with None -> true | Some (cls, adm) -> Bytes.get adm cls.(v) <> '\000'

(* A candidate inside the gate's segment passes by compare; one past it
   locates its own, and a denied one is left with a gallop to its end,
   counting in [w_pruned] the admissible postings passed over. *)
let rec next w =
  let i = w.w_i in
  if i >= w.w_stop then -1
  else
    let v = member w i in
    if not (admits w v) || (w.w_drop2 && v = 2) then begin
      w.w_i <- i + 1;
      next w
    end
    else if w.w_subject < 0 then begin
      w.w_i <- i + 1;
      v
    end
    else begin
      let g = w.w_gate in
      if v < g.Store.lo || v >= g.Store.hi then Store.locate w.w_store ~subject:w.w_subject v g;
      if g.Store.ok then begin
        w.w_i <- i + 1;
        v
      end
      else begin
        let j = w.w_first + Postings.seek w.w_postings (i - w.w_first) g.Store.hi in
        (match w.w_filter with
        | None -> w.w_pruned <- w.w_pruned + (j - i)
        | Some _ ->
            for m = i to j - 1 do
              if admits w (member w m) then w.w_pruned <- w.w_pruned + 1
            done);
        w.w_i <- j;
        next w
      end
    end

(** Existential match of pattern node [p] (with its axis) in the context
    of data node [ctx]: does some data node under [ctx] satisfy [p] and,
    recursively, all of [p]'s children?  Used for predicates. *)
let rec exists_match store index mode (p : Pattern.pnode) ctx =
  match p.Pattern.axis with
  | (Pattern.Child | Pattern.Following_sibling) as axis ->
      let rec scan u =
        if u = Tree.nil then false
        else if
          visit store mode u && test_ok store p.Pattern.test u
          && value_ok store p.Pattern.value u
          && children_match store index mode p u
        then true
        else scan (Store.following_sibling store u)
      in
      let start =
        match axis with
        | Pattern.Child -> Store.first_child store ctx
        | Pattern.Following_sibling | Pattern.Descendant ->
            Store.following_sibling store ctx
      in
      scan start
  | Pattern.Descendant ->
      let cands =
        Postings.narrow (postings store index p) ~lo:(ctx + 1)
          ~hi:(Store.subtree_end store ctx)
      in
      (* inaccessible candidates would fail [visit] one by one; the walk
         skips whole denied runs instead *)
      first_match store index mode p ctx (walk store mode cands) (path_clear store mode)

(* Does a candidate left in [w] witness [p] under [ctx]? *)
and first_match store index mode p ctx w path_clear =
  match next w with
  | -1 -> false
  | u ->
      (visit store mode u
      && value_ok store p.Pattern.value u
      && path_clear ~ctx u
      && children_match store index mode p u)
      || first_match store index mode p ctx w path_clear

(* Every branch in [ps] matches under [v]; no closure is built for a
   node with no branches, the common case. *)
and all_match store index mode ps v =
  match ps with
  | [] -> true
  | _ -> List.for_all (fun c -> exists_match store index mode c v) ps

and children_match store index mode (p : Pattern.pnode) v =
  all_match store index mode p.Pattern.children v

(** Full qualification of a candidate binding [v] for pattern node [p]:
    test, value, access, and all predicate children.  [v]'s axis
    relationship to its context must already hold.  Applied without
    [v], it resolves [p]'s tag once and returns the test to apply per
    candidate. *)
let qualifies store index mode (p : Pattern.pnode) ~preds =
  let tag =
    match p.Pattern.test with
    | Pattern.Wildcard -> -1
    | Pattern.Tag name -> (
        match Tag.find_opt (Tree.tag_table (Store.tree store)) name with
        | Some id -> id
        | None -> -2 (* a tag no node carries *))
  in
  fun v ->
    visit store mode v
    && (tag = -1 || Store.tag store v = tag)
    && value_ok store p.Pattern.value v
    && all_match store index mode preds v

(** {1 Algorithm 1, verbatim}

    A faithful port of the paper's ε-NoK "NPM(proot, sroot, R)" for
    child-only (single NoK subtree) patterns with unordered children.  It
    is used by the test-suite as an executable specification to
    cross-check the production evaluator on single-segment queries whose
    returning node has no further descendants to enumerate.

    Pre-condition (as in the paper): sroot is accessible and matches
    proot's test. *)
let rec npm store mode (proot : Pattern.pnode) sroot r =
  let saved = !r in
  (* lines 1-2: LIST-APPEND(R, sroot) when proot is the returning node *)
  if proot.Pattern.returning then r := sroot :: !r;
  (* line 3: S <- all children of proot *)
  let s = ref proot.Pattern.children in
  (* line 4: u <- FIRST-CHILD(sroot) *)
  let u = ref (Store.first_child store sroot) in
  (* lines 5-13: repeat … until u = NIL or S = {} *)
  while !u <> Tree.nil && !s <> [] do
    (* line 6: ACCESS(u) — checked as soon as the node is reached; the
       recursion is skipped entirely for inaccessible children *)
    if visit store mode !u then begin
      let rec try_patterns = function
        | [] -> ()
        | p :: rest ->
            (* line 7: s matches u "with both tag name and value
               constraints" *)
            if
              test_ok store p.Pattern.test !u
              && value_ok store p.Pattern.value !u
            then begin
              (* line 9: b <- NPM(s, u, R); lines 10-11: remove s on
                 success *)
              if npm store mode p !u r then
                s := List.filter (fun q -> q.Pattern.id <> p.Pattern.id) !s
              else try_patterns rest
            end
            else try_patterns rest
      in
      try_patterns !s
    end;
    (* line 12: u <- FOLLOWING-SIBLING(u) *)
    u := Store.following_sibling store !u
  done;
  (* lines 14-16: failure resets R *)
  if !s <> [] then begin
    r := saved;
    false
  end
  else true

(** Run Algorithm 1 from a candidate subtree root.  Returns the matches
    of the returning node (in discovery order), or [None] if the pattern
    does not match at [sroot].  The pre-condition check (sroot accessible
    and matching the pattern root) happens here. *)
let npm_run store mode pattern sroot =
  let root = pattern.Pattern.root in
  if
    visit store mode sroot
    && test_ok store root.Pattern.test sroot
    && value_ok store root.Pattern.value sroot
  then begin
    let r = ref [] in
    if npm store mode root sroot r then Some (List.rev !r) else None
  end
  else None
