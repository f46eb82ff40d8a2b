(** DOL maintenance under accessibility and structural updates (§3.4).

    All operations preserve the DOL invariants and obey Proposition 1:
    "For each of the above operations (accessibility update or structural
    update), the number of transition nodes of the new DOL will be at most
    2 more than the number of transition nodes in the original data (and
    the data to be inserted)."  Property tests assert this bound.

    Accessibility updates also maintain the physical representation:
    affected pages are read, patched and written back, so the paper's
    update-cost claims (one page read + write for a node update, ~N/B for
    a subtree of N nodes, §3.4) are measurable from the disk counters. *)

module Tree = Dolx_xml.Tree
module Bitset = Dolx_util.Bitset
module Int_vec = Dolx_util.Int_vec
module Binsearch = Dolx_util.Binsearch
module Nok_layout = Dolx_storage.Nok_layout
module Metrics = Dolx_obs.Metrics

let c_node_updates = Metrics.counter "update.node_updates"

let c_subtree_updates = Metrics.counter "update.subtree_updates"

let c_pages_refreshed = Metrics.counter "update.pages_refreshed"

(** {1 Logical transition-list surgery} *)

(* Replace all transitions with preorder in [lo, hi] by [repl] (sorted
   (pre, code) pairs within the window), then drop redundant transitions
   around the seam (a transition whose code equals its predecessor's). *)
let splice (dol : Dol.t) ~lo ~hi repl =
  let pres = dol.Dol.trans_pre and codes = dol.Dol.trans_code in
  let k = Array.length pres in
  (* index of first transition with pre >= lo *)
  let il = match Binsearch.successor pres lo with Some i -> i | None -> k in
  (* index after last transition with pre <= hi *)
  let ih =
    match Binsearch.predecessor pres hi with
    | Some i when pres.(i) >= lo -> i + 1
    | Some _ | None -> il
  in
  let out_pre = Int_vec.create ~capacity:(k + List.length repl) () in
  let out_code = Int_vec.create ~capacity:(k + List.length repl) () in
  let push p c =
    (* skip transitions that repeat the code already in force *)
    if Int_vec.is_empty out_code || Int_vec.last out_code <> c then begin
      Int_vec.push out_pre p;
      Int_vec.push out_code c
    end
  in
  for i = 0 to il - 1 do
    push pres.(i) codes.(i)
  done;
  List.iter (fun (p, c) -> push p c) repl;
  for i = ih to k - 1 do
    push pres.(i) codes.(i)
  done;
  dol.Dol.trans_pre <- Int_vec.to_array out_pre;
  dol.Dol.trans_code <- Int_vec.to_array out_code;
  (* every accessibility update funnels through here: invalidate cursors
     and run indexes derived from the old transition list *)
  Dol.bump_generation dol

(** {1 Accessibility updates (logical)} *)

(** Set a single node's accessibility for one subject.  Returns [true] if
    the DOL changed.  This is the paper's algorithm verbatim: locate the
    nearest preceding transition node; if it already gives the desired
    right, stop; otherwise make the node a transition with the updated
    code and make the following node a transition restoring the old code. *)
let dol_set_node (dol : Dol.t) ~subject ~grant v =
  let c = Dol.code_at dol v in
  let c' = Codebook.with_bit dol.Dol.codebook c subject grant in
  if c' = c then false
  else begin
    let n = dol.Dol.n_nodes in
    let repl =
      if v + 1 < n then [ (v, c'); (v + 1, Dol.code_at dol (v + 1)) ]
      else [ (v, c') ]
    in
    splice dol ~lo:v ~hi:(min (v + 1) (n - 1)) repl;
    true
  end

(** Set one subject's accessibility over the whole preorder range
    [lo, hi] (a subtree, in practice).  Other subjects' rights within the
    range are preserved: each distinct code occurring in the range is
    remapped through the codebook. *)
let dol_set_range (dol : Dol.t) ~subject ~grant ~lo ~hi =
  if lo < 0 || hi >= dol.Dol.n_nodes || lo > hi then invalid_arg "Update.dol_set_range";
  let cb = dol.Dol.codebook in
  let n = dol.Dol.n_nodes in
  let after = if hi + 1 < n then Some (hi + 1, Dol.code_at dol (hi + 1)) else None in
  (* Transitions strictly inside (lo, hi], remapped. *)
  let pres = dol.Dol.trans_pre and codes = dol.Dol.trans_code in
  let inner = ref [] in
  Array.iteri
    (fun i p ->
      if p > lo && p <= hi then
        inner := (p, Codebook.with_bit cb codes.(i) subject grant) :: !inner)
    pres;
  let head = (lo, Codebook.with_bit cb (Dol.code_at dol lo) subject grant) in
  let repl =
    (head :: List.rev !inner) @ match after with Some e -> [ e ] | None -> []
  in
  splice dol ~lo ~hi:(min (hi + 1) (n - 1)) repl

(** Set the accessibility of node [v]'s whole subtree (paper: "if we are
    to set the accessibility of a whole subtree"). *)
let dol_set_subtree (dol : Dol.t) tree ~subject ~grant v =
  dol_set_range dol ~subject ~grant ~lo:v ~hi:(Tree.subtree_end tree v)

(** Replace the full ACL over [lo, hi] with [bits] (all subjects at
    once) — used when inserted data arrives with a uniform ACL. *)
let dol_set_range_acl (dol : Dol.t) ~lo ~hi bits =
  if lo < 0 || hi >= dol.Dol.n_nodes || lo > hi then
    invalid_arg "Update.dol_set_range_acl";
  let n = dol.Dol.n_nodes in
  let c = Codebook.intern dol.Dol.codebook bits in
  let after = if hi + 1 < n then [ (hi + 1, Dol.code_at dol (hi + 1)) ] else [] in
  splice dol ~lo ~hi:(min (hi + 1) (n - 1)) ((lo, c) :: after)

(** {1 Structural updates (logical, functional)} *)

(** Extract the DOL of the preorder range [lo, hi] as a standalone DOL
    (fresh codebook).  Used to carry access rights along with a moved or
    copied subtree. *)
let extract_range (dol : Dol.t) ~lo ~hi =
  if lo < 0 || hi >= dol.Dol.n_nodes || lo > hi then invalid_arg "Update.extract_range";
  let cb = Codebook.create ~width:(Codebook.width dol.Dol.codebook) in
  let pres = Int_vec.create () in
  let codes = Int_vec.create () in
  let push p c =
    if Int_vec.is_empty codes || Int_vec.last codes <> c then begin
      Int_vec.push pres p;
      Int_vec.push codes c
    end
  in
  push 0 (Codebook.intern cb (Dol.acl_at dol lo));
  Array.iteri
    (fun i p ->
      if p > lo && p <= hi then
        push (p - lo)
          (Codebook.intern cb (Codebook.get dol.Dol.codebook dol.Dol.trans_code.(i))))
    dol.Dol.trans_pre;
  {
    Dol.codebook = cb;
    trans_pre = Int_vec.to_array pres;
    trans_code = Int_vec.to_array codes;
    n_nodes = hi - lo + 1;
    generation = 0;
  }

(** Insert a fragment of [m] nodes, carrying its own DOL [sub], so that
    its root lands at preorder [at] of the result (0 < at <= n: document
    roots cannot be displaced).  Returns a new DOL over n + m nodes; the
    main codebook absorbs the fragment's ACLs ("we assume the nodes
    inserted have access controls already", §3.4). *)
let dol_insert (dol : Dol.t) ~at (sub : Dol.t) =
  let n = dol.Dol.n_nodes and m = Dol.n_nodes sub in
  if at <= 0 || at > n then invalid_arg "Update.dol_insert: bad position";
  if Codebook.width sub.Dol.codebook <> Codebook.width dol.Dol.codebook then
    invalid_arg "Update.dol_insert: subject-set width mismatch";
  let cb = dol.Dol.codebook in
  let pres = Int_vec.create () in
  let codes = Int_vec.create () in
  let push p c =
    if Int_vec.is_empty codes || Int_vec.last codes <> c then begin
      Int_vec.push pres p;
      Int_vec.push codes c
    end
  in
  (* main transitions before the insertion point *)
  Array.iteri
    (fun i p -> if p < at then push p dol.Dol.trans_code.(i))
    dol.Dol.trans_pre;
  (* the fragment, re-interned and shifted *)
  Array.iteri
    (fun i p ->
      push (p + at) (Codebook.intern cb (Codebook.get sub.Dol.codebook sub.Dol.trans_code.(i))))
    sub.Dol.trans_pre;
  (* restore the code of the node that now follows the fragment *)
  if at < n then push (at + m) (Dol.code_at dol at);
  (* main transitions at or after the insertion point, shifted *)
  Array.iteri
    (fun i p -> if p >= at then push (p + m) dol.Dol.trans_code.(i))
    dol.Dol.trans_pre;
  { Dol.codebook = cb; trans_pre = Int_vec.to_array pres;
    trans_code = Int_vec.to_array codes; n_nodes = n + m; generation = 0 }

(** Delete the preorder range [lo, hi] (a subtree).  Returns a new DOL
    over n - (hi - lo + 1) nodes. *)
let dol_delete (dol : Dol.t) ~lo ~hi =
  let n = dol.Dol.n_nodes in
  if lo <= 0 || hi >= n || lo > hi then invalid_arg "Update.dol_delete: bad range";
  let m = hi - lo + 1 in
  let pres = Int_vec.create () in
  let codes = Int_vec.create () in
  let push p c =
    if Int_vec.is_empty codes || Int_vec.last codes <> c then begin
      Int_vec.push pres p;
      Int_vec.push codes c
    end
  in
  Array.iteri (fun i p -> if p < lo then push p dol.Dol.trans_code.(i)) dol.Dol.trans_pre;
  if hi + 1 < n then push lo (Dol.code_at dol (hi + 1));
  Array.iteri
    (fun i p -> if p > hi then push (p - m) dol.Dol.trans_code.(i))
    dol.Dol.trans_pre;
  { Dol.codebook = dol.Dol.codebook; trans_pre = Int_vec.to_array pres;
    trans_code = Int_vec.to_array codes; n_nodes = n - m; generation = 0 }

(** Move the range [lo, hi] so that it starts at position [at] of the
    intermediate (post-delete) document.  Composition of {!dol_delete}
    and {!dol_insert}; each step obeys Proposition 1. *)
let dol_move (dol : Dol.t) ~lo ~hi ~at =
  let sub = extract_range dol ~lo ~hi in
  let without = dol_delete dol ~lo ~hi in
  dol_insert without ~at sub

(** {1 Subject-set updates (§3.4)} *)

(** Add a subject column; rights optionally copied from [like].  "No
    changes to the embedded transition nodes and the references are
    required." Returns the new subject's index. *)
let add_subject (dol : Dol.t) ?like () =
  let s = Codebook.add_subject dol.Dol.codebook ?like () in
  (* subject indices shifted / new column: derived run indexes are stale *)
  Dol.bump_generation dol;
  s

(** Remove a subject.  Only the codebook changes; the embedded codes may
    become redundant and are cleaned lazily by {!compact}. *)
let remove_subject (dol : Dol.t) subject =
  Codebook.remove_subject dol.Dol.codebook subject;
  Dol.bump_generation dol

(** Lazy correction pass: drop transitions whose ACL (not merely code)
    equals the ACL in force before them. *)
let compact (dol : Dol.t) =
  let cb = dol.Dol.codebook in
  let pres = Int_vec.create () in
  let codes = Int_vec.create () in
  let last_bits = ref None in
  Array.iteri
    (fun i p ->
      let c = dol.Dol.trans_code.(i) in
      let bits = Codebook.get cb c in
      let same = match !last_bits with Some b -> Bitset.equal b bits | None -> false in
      if not same then begin
        Int_vec.push pres p;
        Int_vec.push codes c;
        last_bits := Some bits
      end)
    dol.Dol.trans_pre;
  dol.Dol.trans_pre <- Int_vec.to_array pres;
  dol.Dol.trans_code <- Int_vec.to_array codes;
  Dol.bump_generation dol

(** {1 Physical write-through} *)

(* After a logical accessibility update over [lo, hi], re-emit every page
   intersecting [lo, hi+1] from the logical DOL.  Pages are read, patched
   and written back through the layout, so disk counters reflect the
   paper's N/B claim. *)
let refresh_pages (store : Secure_store.t) ~lo ~hi =
  let layout = Secure_store.layout store in
  let pool = Secure_store.pool store in
  let dol = Secure_store.dol store in
  let n = Dol.n_nodes dol in
  let hi = min (hi + 1) (n - 1) in
  let rec go pre =
    if pre <= hi then begin
      let lp = Nok_layout.page_of layout pre in
      let rs = Nok_layout.records layout pool lp in
      let first_pre =
        match rs with r :: _ -> r.Nok_layout.pre | [] -> assert false
      in
      let count = List.length rs in
      let rs' =
        List.map
          (fun (r : Nok_layout.record) ->
            let code =
              if r.Nok_layout.pre <> first_pre && Dol.is_transition dol r.Nok_layout.pre
              then Some (Dol.code_at dol r.Nok_layout.pre)
              else None
            in
            { r with Nok_layout.code })
          rs
      in
      Nok_layout.rewrite_page layout pool lp rs' ~code_before:(Dol.code_at dol);
      Metrics.incr c_pages_refreshed;
      go (first_pre + count)
    end
  in
  go lo

(** Single-node accessibility update on a secured store: logical DOL
    change + page write-back ("the cost for update a specific node is a
    page read followed by a page write", §3.4).  Runs as one
    {!Secure_store.with_write} window: readers pinned before it keep the
    pre-image, readers created after it see the whole update. *)
let set_node_accessibility store ~subject ~grant v =
  Secure_store.with_write ~only_subject:subject store (fun store ->
      Metrics.incr c_node_updates;
      let changed = dol_set_node (Secure_store.dol store) ~subject ~grant v in
      if changed then refresh_pages store ~lo:v ~hi:(v + 1);
      changed)

(** Subtree accessibility update on a secured store (~N/B page I/Os);
    one update window like {!set_node_accessibility}. *)
let set_subtree_accessibility store ~subject ~grant v =
  Secure_store.with_write ~only_subject:subject store (fun store ->
      Metrics.incr c_subtree_updates;
      let tree = Secure_store.tree store in
      let dol = Secure_store.dol store in
      let hi = Tree.subtree_end tree v in
      dol_set_range dol ~subject ~grant ~lo:v ~hi;
      refresh_pages store ~lo:v ~hi)

(** {1 Store-level subject updates}

    The dol-level {!add_subject} / {!remove_subject} mutate the codebook
    in place, which is unsafe once snapshot readers share it.  The
    store-level variants copy-on-write the codebook (a copy of its
    matrix; the column surgery happens on the copy), swap it into the
    live DOL and publish a new epoch — pinned readers keep the old
    book. *)

let store_add_subject store ?like () =
  Secure_store.with_write store (fun store ->
      let dol = Secure_store.dol store in
      let cb = Codebook.copy (Dol.codebook dol) in
      let s = Codebook.add_subject cb ?like () in
      dol.Dol.codebook <- cb;
      Dol.bump_generation dol;
      s)

let store_remove_subject store subject =
  Secure_store.with_write store (fun store ->
      let dol = Secure_store.dol store in
      let cb = Codebook.copy (Dol.codebook dol) in
      Codebook.remove_subject cb subject;
      dol.Dol.codebook <- cb;
      Dol.bump_generation dol)

(** Store-level {!compact}: the lazy correction pass as one update
    window, with the affected pages re-emitted. *)
let store_compact store =
  Secure_store.with_write store (fun store ->
      let dol = Secure_store.dol store in
      compact dol;
      let n = Dol.n_nodes dol in
      if n > 0 then refresh_pages store ~lo:0 ~hi:(n - 1))

(** Patch a DOL in place so that it matches [labeling] over the given
    preorder [runs] — the DOL side of incremental accessibility-map
    maintenance ([Dolx_policy.Incremental] reports the runs its rule
    updates touched).  Each run is split into maximal sub-runs of equal
    ACL and applied with one range update per sub-run. *)
let sync_ranges (dol : Dol.t) labeling runs =
  let module Labeling = Dolx_policy.Labeling in
  let module Acl = Dolx_policy.Acl in
  let store = Labeling.store labeling in
  List.iter
    (fun (lo, hi) ->
      let u = ref lo in
      while !u <= hi do
        let id = Labeling.acl_id labeling !u in
        let stop = ref !u in
        while !stop + 1 <= hi && Labeling.acl_id labeling (!stop + 1) = id do
          incr stop
        done;
        dol_set_range_acl dol ~lo:!u ~hi:!stop (Acl.get store id);
        u := !stop + 1
      done)
    runs

(** {1 Durable (journaled) updates}

    Crash-safe variants over a clean database image ({!Db_file}): the
    update is journaled with a commit mark before the file is compacted,
    so a crash at any point leaves an image that loads as exactly the
    pre- or exactly the post-update labeling — never a hybrid. *)

(** Durable {!set_node_accessibility}: returns the new clean image. *)
let durable_node_update ?pool_capacity ~base ~subject ~grant v =
  Db_file.apply_update ?pool_capacity ~base (fun store ->
      ignore (set_node_accessibility store ~subject ~grant v))

(** Durable {!set_subtree_accessibility}: returns the new clean image. *)
let durable_subtree_update ?pool_capacity ~base ~subject ~grant v =
  Db_file.apply_update ?pool_capacity ~base (fun store ->
      set_subtree_accessibility store ~subject ~grant v)
