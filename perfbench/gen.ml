(** Seeded inputs: the XMark document, the multi-subject labeling and
    each workload's operation sequence.  Everything here runs before
    set-up and outside every timed window; the same seed always gives
    the same inputs.

    The document, its labeling and the hot subjects are fixed, so node
    count, codebook, set-up cost and the per-subject work do not move
    between seeds; the seed orders the requests within each balanced
    round and draws the update targets. *)

module Tree = Dolx_xml.Tree
module Prng = Dolx_util.Prng
module Bitset = Dolx_util.Bitset
module Acl = Dolx_policy.Acl
module Labeling = Dolx_policy.Labeling
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Engine = Dolx_nok.Engine

type workload = Paths | Twigs | Churn

let workloads = [ ("paths", Paths); ("twigs", Twigs); ("churn", Churn) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let workload_index = function Paths -> 0 | Twigs -> 1 | Churn -> 2

(** Input sizes: [full] is the measured configuration, [tiny] the one
    the self-tests run. *)
type scale = {
  nodes : int;  (** requested document size (XMark lands within ~15%) *)
  subjects : int;  (** labeling population *)
  hot : int;  (** subjects that [twigs] and [churn] draw from *)
}

let full = { nodes = 200_000; subjects = 256; hot = 16 }

let tiny = { nodes = 2_000; subjects = 256; hot = 16 }

let doc_seed = 20050405

let policy_seed = 2005

(* The bench serve recipe: 20 archetype profiles, perturbed copies. *)
let archetypes = 20

let perturb = 0.05

type op =
  | Query of { q : int; semantics : Engine.semantics }
      (** [q] indexes {!Xmark.queries} *)
  | Update of { subject : int; root : Tree.node; grant : bool }
      (** one [Update.set_subtree_accessibility] *)

let queries = Array.of_list Xmark.queries

let xpath q = snd queries.(q)

(* Query weights per workload, by index into [queries] (Q1..Q6). *)
let mix = function
  | Paths -> [| (0, 1); (1, 1); (2, 1) |]
  | Twigs -> [| (3, 1); (4, 1); (5, 1) |]
  | Churn -> [| (0, 1); (1, 1); (2, 1); (3, 2); (4, 2); (5, 2) |]

(* One request in [path_every] is [Secure_path], the rest [Secure]. *)
let path_every = 4

(* In [churn], every [update_every]-th operation is an update. *)
let update_every = 9

(* A distinct random stream per purpose, all derived from the seed. *)
let stream seed purpose = Prng.create ((seed * 1_000_003) + purpose)

(** [Synth_acl.generate_multi tree ~seed ~n_subjects:subjects
    ~n_archetypes:20 ~perturb:0.05 ()], drawing the same random stream,
    but holding each subject's row as a bitset instead of a
    [bool array]: 1000 subjects over 200k nodes take 25 MB instead of
    1.6 GB. *)
let labeling_of tree ~seed ~subjects =
  let params = Synth_acl.default in
  let n = Tree.size tree in
  let rng = Prng.create seed in
  let profiles =
    Array.init (min archetypes subjects) (fun _ ->
        Synth_acl.generate_bool tree ~params (Prng.split rng))
  in
  let rows =
    Array.init subjects (fun i ->
        let row = Bitset.create n in
        Array.iteri
          (fun v b -> if b then Bitset.set row v true)
          profiles.(i mod Array.length profiles);
        if i >= Array.length profiles then begin
          let rng = Prng.split rng in
          let flips = int_of_float (float_of_int n *. perturb /. 10.0) in
          for _ = 1 to max 1 flips do
            let v = Prng.int rng n in
            let last = Tree.subtree_end tree v in
            let acc = Prng.bool rng ~p:params.Synth_acl.accessibility_ratio in
            for u = v to last do
              Bitset.set row u acc
            done
          done
        end;
        row)
  in
  let store = Acl.create ~width:subjects in
  let node_acl =
    Array.init n (fun v ->
        let bits = Bitset.create subjects in
        for s = 0 to subjects - 1 do
          if Bitset.get rows.(s) v then Bitset.set bits s true
        done;
        Acl.intern store bits)
  in
  Labeling.create ~store ~node_acl

let subjects_of labeling = Acl.width (Labeling.store labeling)

(** {1 Flip targets}

    A flip sets one subject's accessibility over a subtree that is
    uniform for that subject, to the opposite value.  Setting the
    original value back restores the policy exactly, so toggle pairs
    never let the policy drift. *)

(* Tags the six queries bind or pass through. *)
let anchor_tags =
  [ "item"; "location"; "name"; "quantity"; "category"; "description";
    "text"; "bold"; "parlist"; "listitem"; "keyword"; "emph" ]

let anchors_of tree =
  let acc = ref [] in
  Tree.iter
    (fun v -> if List.mem (Tree.tag_name tree v) anchor_tags then acc := v :: !acc)
    tree;
  Array.of_list (List.rev !acc)

let max_flip = 1024

let uniform labeling tree ~subject v =
  let a = Labeling.accessible labeling ~subject v in
  let last = Tree.subtree_end tree v in
  let rec go u =
    u > last || (Labeling.accessible labeling ~subject u = a && go (u + 1))
  in
  go (v + 1)

(* From a random anchor, climb to the largest uniform ancestor below the
   root and within [max_flip] nodes.  Returns (root, flip grant). *)
let flip_target prng labeling tree anchors ~subject =
  let rec climb v =
    let p = Tree.parent tree v in
    if p = Tree.nil || p = Tree.root || Tree.subtree_size tree p > max_flip
       || not (uniform labeling tree ~subject p)
    then v
    else climb p
  in
  let rec pick tries =
    let v = anchors.(Prng.int prng (Array.length anchors)) in
    if uniform labeling tree ~subject v then climb v
    else if tries > 0 then pick (tries - 1)
    else Tree.subtree_end tree v (* a leaf is always uniform *)
  in
  let root = pick 64 in
  (root, not (Labeling.accessible labeling ~subject root))

(** {1 Inputs} *)

type inputs = {
  tree : Tree.t;
  labeling : Labeling.t;
  hot : int array;  (** the [hot] subjects, ascending *)
  anchors : Tree.node array;
}

let inputs scale =
  let tree = Xmark.generate_nodes ~seed:doc_seed scale.nodes in
  {
    tree;
    labeling = labeling_of tree ~seed:policy_seed ~subjects:scale.subjects;
    hot = Array.of_list (Prng.sample (Prng.create policy_seed) scale.subjects scale.hot);
    anchors = anchors_of tree;
  }

(** {1 Operation sequences} *)

(* One round: for every subject and query, [path_every * weight]
   requests, one in [path_every] under [Secure_path], in a seeded
   order.  Every round holds the same requests, so the seed moves the
   order but not the mix, and the latency CDF keeps its shape. *)
let round prng w subjects =
  let acc = ref [] in
  Array.iter
    (fun subject ->
      Array.iter
        (fun (q, weight) ->
          for k = 0 to (path_every * weight) - 1 do
            let semantics =
              if k mod path_every = 0 then Engine.Secure_path subject
              else Engine.Secure subject
            in
            acc := Query { q; semantics } :: !acc
          done)
        (mix w))
    subjects;
  let a = Array.of_list !acc in
  Prng.shuffle prng a;
  a

(* Rounds back to back, one query per call. *)
let query_stream prng w subjects =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos = Array.length !cur then begin
      cur := round prng w subjects;
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

type part = Main | Warmup | Probe

let part_index = function Main -> 0 | Warmup -> 1 | Probe -> 2

let prng_for w part ~seed =
  stream seed (10 + (3 * workload_index w) + part_index part)

(** [ops inp w ~seed ~part ~n]: [n] operations of workload [w].  [churn]
    issues one update after every 8 queries, alternating a flip and its
    restore, so at most one flip is outstanding and the policy is back
    at its base state after every pair. *)
let ops inp w ~seed ~part ~n =
  let prng = prng_for w part ~seed in
  let hot () = inp.hot.(Prng.int prng (Array.length inp.hot)) in
  let subjects =
    match w with
    | Paths -> Array.init (subjects_of inp.labeling) Fun.id
    | Twigs | Churn -> inp.hot
  in
  let query = query_stream prng w subjects in
  match w with
  | Paths | Twigs -> Array.init n (fun _ -> query ())
  | Churn ->
      let pending = ref None in
      Array.init n (fun i ->
          if i mod update_every <> update_every - 1 then query ()
          else
            match !pending with
            | None ->
                let subject = hot () in
                let root, grant =
                  flip_target prng inp.labeling inp.tree inp.anchors ~subject
                in
                pending := Some (subject, root, grant);
                Update { subject; root; grant }
            | Some (subject, root, grant) ->
                pending := None;
                Update { subject; root; grant = not grant })

(** Warm-up prefix length: one whole round on [paths], so every
    subject's codebook slice is decoded and the run-index LRU is full,
    and enough to touch every hot subject on the others.  [churn]'s is a
    multiple of [2 * update_every], so it ends on a restore. *)
let warmup_len = function
  | Paths -> 3072
  | Twigs -> 32
  | Churn -> 4 * update_every

(** The update probe run after each window: [pairs] flip-and-restore
    pairs over the workload's own subjects. *)
let probe inp w ~seed ~pairs =
  let prng = prng_for w Probe ~seed in
  let subjects = subjects_of inp.labeling in
  Array.concat
    (List.init pairs (fun _ ->
         let subject =
           match w with
           | Paths -> Prng.int prng subjects
           | Twigs | Churn -> inp.hot.(Prng.int prng (Array.length inp.hot))
         in
         let root, grant =
           flip_target prng inp.labeling inp.tree inp.anchors ~subject
         in
         [| Update { subject; root; grant };
            Update { subject; root; grant = not grant } |]))
