(** DOL — Document Ordered Labeling (the paper's core contribution, §2).

    "We define a transition node to be a secured tree node whose
    accessibility is different from its document-order predecessor…  The
    DOL corresponding to a given secured tree is simply a list, in
    document order, of the tree's transition nodes, together with their
    accessibilities."  For multiple subjects, each transition node carries
    a code into the {!Codebook} (§2.1).

    This module is the logical DOL: sorted parallel arrays of transition
    preorders and codes, plus the codebook.  The physical, page-embedded
    representation lives in {!Dol_store}. *)

module Tree = Dolx_xml.Tree
module Bitset = Dolx_util.Bitset
module Binsearch = Dolx_util.Binsearch
module Int_vec = Dolx_util.Int_vec
module Labeling = Dolx_policy.Labeling
module Acl = Dolx_policy.Acl

type t = {
  mutable codebook : Codebook.t;
  (* replaced wholesale (copy-on-write) by subject add/remove so
     snapshot holders keep the old book *)
  mutable trans_pre : int array;  (* sorted transition-node preorders; [0] = 0 *)
  mutable trans_code : int array; (* parallel codes *)
  mutable n_nodes : int;
  mutable generation : int;       (* bumped on every in-place mutation *)
}

let codebook t = t.codebook

(* A shallow copy pinning the current arrays and codebook: in-place
   updates splice fresh arrays into the live record (and subject ops
   swap in a fresh codebook), so the copy keeps answering from the
   captured state.  Writer-side only — reads the mutable fields. *)
let snapshot t =
  {
    codebook = t.codebook;
    trans_pre = t.trans_pre;
    trans_code = t.trans_code;
    n_nodes = t.n_nodes;
    generation = t.generation;
  }

let generation t = t.generation

let bump_generation t = t.generation <- t.generation + 1

let n_nodes t = t.n_nodes

(** The number of transition nodes (the paper's Fig. 6 metric). *)
let transition_count t = Array.length t.trans_pre

(** {1 Construction} *)

(** Build from a materialized labeling in one document-order pass.

    The labeling's ACLs are hash-consed, so an ACL id names one bitset
    and two ids never name equal ones: the codebook is a renumbering of
    the ids that start a transition.  [code_of] maps an id to its code,
    given at the id's first transition in the order interning would
    give it, and each distinct ACL is written into the codebook's matrix
    once, never hashed. *)
let of_labeling labeling =
  let store = Labeling.store labeling in
  let n = Labeling.size labeling in
  if n = 0 then invalid_arg "Dol.of_labeling: empty labeling";
  let code_of = Array.make (Acl.count store) (-1) in
  let firsts = Int_vec.create () in (* code -> ACL id *)
  let pres = Int_vec.create () in
  let codes = Int_vec.create () in
  let prev = ref (-1) in
  for v = 0 to n - 1 do
    let acl_id = Labeling.acl_id labeling v in
    (* The root is always a transition node (§2). *)
    if acl_id <> !prev then begin
      let c = code_of.(acl_id) in
      let c =
        if c >= 0 then c
        else begin
          let c = Int_vec.length firsts in
          code_of.(acl_id) <- c;
          Int_vec.push firsts acl_id;
          c
        end
      in
      Int_vec.push pres v;
      Int_vec.push codes c;
      prev := acl_id
    end
  done;
  {
    codebook = Codebook.of_acls store (Int_vec.to_array firsts);
    trans_pre = Int_vec.to_array pres;
    trans_code = Int_vec.to_array codes;
    n_nodes = n;
    generation = 0;
  }

(** Build a single-subject DOL from a boolean accessibility array. *)
let of_bool_array acc = of_labeling (Labeling.of_bool_array acc)

(** Streaming one-pass construction (paper §2: "a document order encoding
    of access rights can be constructed on-the-fly using a single pass
    through a labeled XML document"; §7: embeddable "into streaming XML
    data as control characters").  Feed ACLs in document order. *)
module Streaming = struct
  type builder = {
    codebook : Codebook.t;
    pres : Int_vec.t;
    codes : Int_vec.t;
    mutable last_bits : Bitset.t; (* the previous node's ACL *)
    mutable next_pre : int;
  }

  let create ~width =
    {
      codebook = Codebook.create ~width;
      pres = Int_vec.create ();
      codes = Int_vec.create ();
      last_bits = Bitset.create width;
      next_pre = 0;
    }

  (** Feed the ACL of the next node in document order.  Returns [Some code]
      if this node is a transition node (i.e. a control character would be
      emitted into the stream), [None] otherwise.  A node whose ACL equals
      its predecessor's is no transition, and is decided without hashing. *)
  let push b bits =
    let v = b.next_pre in
    b.next_pre <- v + 1;
    (* the root is always a transition; interning gives equal ACLs one
       code and unequal ones different codes *)
    if v > 0 && Bitset.equal b.last_bits bits then None
    else begin
      let code = Codebook.intern b.codebook bits in
      b.last_bits <- bits;
      Int_vec.push b.pres v;
      Int_vec.push b.codes code;
      Some code
    end

  let finish b =
    if b.next_pre = 0 then invalid_arg "Dol.Streaming.finish: no nodes";
    {
      codebook = b.codebook;
      trans_pre = Int_vec.to_array b.pres;
      trans_code = Int_vec.to_array b.codes;
      n_nodes = b.next_pre;
      generation = 0;
    }
end

(** {1 Lookup} *)

(** Index (into the transition arrays) of the transition governing node
    [v]: the nearest preceding transition node (§3.3). *)
let governing_index t v =
  if v < 0 || v >= t.n_nodes then invalid_arg "Dol: node out of range";
  match Binsearch.predecessor t.trans_pre v with
  | Some i -> i
  | None -> assert false (* trans_pre.(0) = 0 covers every node *)

(** The access-control code in force at node [v]. *)
let code_at t v = t.trans_code.(governing_index t v)

(** The full ACL in force at node [v]. *)
let acl_at t v = Codebook.get t.codebook (code_at t v)

(** [accessible t ~subject v] — the accessibility function (§2). *)
let accessible t ~subject v = Codebook.grants t.codebook (code_at t v) subject

(** Is [v] itself a transition node? *)
let is_transition t v =
  let i = governing_index t v in
  t.trans_pre.(i) = v

(** {1 Resumable lookup}

    A cursor remembers the governing-transition index of the previous
    lookup so a document-order scan pays O(1) amortized per node instead
    of a full binary search each time.  Backward seeks and long forward
    jumps fall back to binary search; a generation mismatch (the DOL was
    mutated since the last lookup) forces a restart, so a stale cursor
    can never return pre-update codes. *)

type cursor = { mutable c_idx : int; mutable c_gen : int }

let cursor t = { c_idx = 0; c_gen = t.generation }

(* Linear steps to try before giving up and binary-searching; keeps a
   sequential scan at O(1) per node without making random jumps O(k). *)
let cursor_linear_budget = 8

let governing_index_cur t cu v =
  if v < 0 || v >= t.n_nodes then invalid_arg "Dol: node out of range";
  let pres = t.trans_pre in
  let k = Array.length pres in
  if cu.c_gen <> t.generation || cu.c_idx >= k || pres.(cu.c_idx) > v then begin
    (* stale or backward: restart from a fresh binary search *)
    cu.c_gen <- t.generation;
    cu.c_idx <- governing_index t v
  end
  else begin
    let i = ref cu.c_idx in
    let steps = ref 0 in
    while !i + 1 < k && pres.(!i + 1) <= v && !steps < cursor_linear_budget do
      incr i;
      incr steps
    done;
    if !i + 1 < k && pres.(!i + 1) <= v then i := governing_index t v;
    cu.c_idx <- !i
  end;
  cu.c_idx

let code_at_cur t cu v = t.trans_code.(governing_index_cur t cu v)

let accessible_cur t cu ~subject v =
  Codebook.grants t.codebook (code_at_cur t cu v) subject

(** {1 Space accounting (paper §5.1)} *)

(** Bytes for the in-memory codebook. *)
let codebook_bytes t = Codebook.storage_bytes t.codebook

(** Bytes for the embedded transition codes ("DOL … stores only an access
    control code per transition node"). *)
let embedded_bytes t = transition_count t * Codebook.code_bytes t.codebook

let storage_bytes t = codebook_bytes t + embedded_bytes t

(** Density: transition nodes per document node. *)
let transition_density t =
  float_of_int (transition_count t) /. float_of_int t.n_nodes

(** {1 Verification helpers} *)

(** Check that [t] agrees with [labeling] on every node and subject —
    the defining property of a DOL.  Raises [Failure] on mismatch. *)
let verify_against t labeling =
  if Labeling.size labeling <> t.n_nodes then failwith "Dol.verify: size mismatch";
  let cu = cursor t in
  for v = 0 to t.n_nodes - 1 do
    let want = Labeling.acl labeling v in
    let got = Codebook.get t.codebook (code_at_cur t cu v) in
    if not (Bitset.equal want got) then
      failwith (Printf.sprintf "Dol.verify: ACL mismatch at node %d" v)
  done

(** Internal invariants: strictly increasing preorders starting at 0, no
    two consecutive transitions with the same code, all codes valid. *)
let validate t =
  let k = Array.length t.trans_pre in
  if k = 0 then failwith "Dol.validate: no transitions";
  if Array.length t.trans_code <> k then failwith "Dol.validate: parallel array mismatch";
  if t.trans_pre.(0) <> 0 then failwith "Dol.validate: first transition must be the root";
  for i = 0 to k - 1 do
    if t.trans_code.(i) < 0 || t.trans_code.(i) >= Codebook.count t.codebook then
      failwith "Dol.validate: dangling code";
    if i > 0 then begin
      if t.trans_pre.(i) <= t.trans_pre.(i - 1) then
        failwith "Dol.validate: preorders not strictly increasing";
      if t.trans_pre.(i) >= t.n_nodes then failwith "Dol.validate: transition out of range"
    end
  done

let pp ppf t =
  Fmt.pf ppf "DOL: %d nodes, %d transitions, %d codebook entries (%d B total)"
    t.n_nodes (transition_count t)
    (Codebook.count t.codebook)
    (storage_bytes t)
