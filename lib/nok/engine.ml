(** Secure twig-query evaluation: NoK subtree matching + structural joins
    (paper §4).

    The evaluator follows the paper's architecture: the pattern tree is
    decomposed ({!Decompose}) into NoK subtrees connected by ancestor–
    descendant edges; the first subtree's candidate roots come from the
    tag index ("by using B+ trees on the subtree root's value or tag
    names to start the matching", §4.1); each subtree is matched by
    navigational NPM with per-node ACCESS checks in the secure modes; and
    consecutive subtrees are combined with (ε-)Stack-Tree-Desc.

    Semantics: under [Secure] (Cho et al., the paper's default, §4) a
    binding survives iff every *bound* node is accessible; intermediate
    nodes on ancestor–descendant paths are unconstrained.  Under
    [Secure_path] (Gabillon–Bruno, §4.2) the connecting paths must be
    fully accessible too, enforced by ε-STD. *)

module Store = Dolx_core.Secure_store
module Tree = Dolx_xml.Tree
module Tag = Dolx_xml.Tag
module Tag_index = Dolx_index.Tag_index
module Path_summary = Dolx_index.Path_summary
module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace

let c_queries = Metrics.counter "engine.queries"

let c_segments = Metrics.counter "engine.segments"

let c_joins = Metrics.counter "engine.joins"

let c_candidates = Metrics.counter "engine.candidates_scanned"

let c_answers = Metrics.counter "engine.answers"

let c_plan_index = Metrics.counter "engine.plan_index_join"

let c_plan_subtree = Metrics.counter "engine.plan_subtree_scan"

let c_plan_summary = Metrics.counter "engine.plan_summary_prune"

let c_plan_path = Metrics.counter "engine.plan_summary_path"

let c_pruned = Metrics.counter "engine.candidates_pruned"

let c_summary_pruned = Metrics.counter "engine.summary_pruned"

type semantics =
  | Insecure              (** plain NoK evaluation, no access control *)
  | Secure of int         (** ε-NoK for the given subject (Cho et al.) *)
  | Secure_path of int    (** ε-NoK + ε-STD (Gabillon–Bruno, §4.2) *)

(** Use the in-memory page-header skip optimization of §3.3? *)
type options = { header_skip : bool }

let default_options = { header_skip = true }

let match_mode options = function
  | Insecure -> Nok_match.insecure
  | Secure s -> Nok_match.secure ~header_skip:options.header_skip s
  | Secure_path s ->
      Nok_match.secure ~header_skip:options.header_skip ~path_semantics:true s

type result = {
  answers : int list;     (* returning-node bindings, document order *)
  segments : int;         (* NoK subtrees evaluated *)
  joins : int;            (* structural joins performed *)
  candidates_scanned : int;
}

(* Candidate roots for a segment whose entry axis is Descendant: all
   nodes with the right tag — and, when the step also constrains the
   node's text and a value index is available, only the nodes with that
   exact value ("B+ trees on the subtree root's value or tag names to
   start the matching", §4.1). *)
let index_candidates ?value_index store index (p : Pattern.pnode) =
  match p.Pattern.test with
  | Pattern.Tag name -> (
      let table = Tree.tag_table (Store.tree store) in
      match Tag.find_opt table name with
      | Some id -> (
          match (p.Pattern.value, value_index) with
          | Some value, Some vi -> Dolx_index.Value_index.postings vi id ~value
          | _ -> Tag_index.postings index id)
      | None -> [])
  | Pattern.Wildcard -> List.init (Tree.size (Store.tree store)) Fun.id

let subject_of = function Insecure -> None | Secure s | Secure_path s -> Some s

(* Deliberate fault site for the differential fuzzer's self-test: when
   armed, run-index pruning silently drops node 2 from every candidate
   set, so secure answers lose it while the runs-off path keeps it.
   Armed only via DOLX_FUZZ_PLANT_BUG=prune; tests may toggle the ref. *)
let planted_bug = ref (Sys.getenv_opt "DOLX_FUZZ_PLANT_BUG" = Some "prune")

(* Drop candidates the subject provably cannot access (run-index
   intersection).  Safe under both secure semantics: a pruned candidate
   would fail its own [visit] when qualified or when re-seeding the next
   segment, so the surviving answers are unchanged. *)
let prune_candidates store semantics cands =
  match subject_of semantics with
  | None -> cands
  | Some s ->
      if not (Store.run_index_enabled store) then cands
      else begin
        let kept = Store.intersect_accessible store ~subject:s cands in
        Metrics.add c_pruned (List.length cands - List.length kept);
        if !planted_bug then List.filter (fun v -> v <> 2) kept else kept
      end

let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 n

(* Class analysis of this query against the path summary, when the
   handle has the summary tier enabled.  Under secure semantics the
   run index additionally kills classes whose whole extent span holds
   no accessible node — those classes can supply no witness, bound or
   existential.  Classes discarded either way feed the
   [engine.summary_pruned] counter. *)
let summary_analysis store pattern semantics =
  if not (Store.summary_enabled store) then None
  else begin
    let ps = Store.path_summary store in
    let table = Tree.tag_table (Store.tree store) in
    let sp = Summary_prune.analyze ~table ps pattern in
    (match subject_of semantics with
    | Some s when Store.run_index_enabled store ->
        let dead ~lo ~hi = Store.next_accessible store ~subject:s lo > hi in
        ignore (Summary_prune.drop_dead_spans sp ~dead)
    | _ -> ());
    Metrics.add c_summary_pruned (Summary_prune.pruned_classes sp);
    Some sp
  end

(* Candidates for the next segment's entry step at a structural join.
   Two access paths produce the same final answers — the join keeps only
   descendants of the current bindings, so probing each binding's
   subtree range ([postings_in]) instead of materializing the global
   postings list is purely a cost decision.  The model compares

     global:   card x (materialize + feed the join)
     subtree:  one B+ descent per binding
               + card x coverage x (materialize + feed the join)

   where coverage is the fraction of the document inside binding
   subtrees, and the join-feed terms are discounted by the subject's
   accessible fraction (denied candidates are run-pruned before the
   join sees them).  The run count enters both sides symmetrically as
   the intersection cost, so it never flips a decision between secure
   and insecure evaluation of the same query. *)
let join_candidates ?value_index ?summary store index ~semantics ~bindings
    (p : Pattern.pnode) =
  let class_filter cands =
    match summary with
    | None -> cands
    | Some sp ->
        Metrics.incr c_plan_summary;
        Summary_prune.restrict sp p cands
  in
  let prune cands = prune_candidates store semantics (class_filter cands) in
  match summary with
  | Some sp when Summary_prune.empty_for sp p ->
      (* every admissible class is gone — skip the postings entirely *)
      Metrics.incr c_plan_summary;
      []
  | _ -> (
  match p.Pattern.test with
  | Pattern.Wildcard -> prune (index_candidates ?value_index store index p)
  | Pattern.Tag _ when p.Pattern.value <> None && value_index <> None ->
      (* value postings are already maximally selective *)
      prune (index_candidates ?value_index store index p)
  | Pattern.Tag name -> (
      let tree = Store.tree store in
      match Tag.find_opt (Tree.tag_table tree) name with
      | None -> []
      | Some id ->
          let card =
            (* with the summary, the exact number of nodes on an
               admissible tag path (classes of one tag partition its
               extent) — tighter than the whole-tag count *)
            match summary with
            | Some sp -> float_of_int (Summary_prune.cardinality sp p)
            | None -> float_of_int (Tag_index.count index id)
          in
          let n = max 1 (Tree.size tree) in
          let spans =
            List.fold_left
              (fun acc b -> acc + (Tree.subtree_end tree b - b + 1))
              0 bindings
          in
          let coverage = Float.min 1.0 (float_of_int spans /. float_of_int n) in
          let af =
            match subject_of semantics with
            | Some s -> Store.accessible_fraction store ~subject:s
            | None -> 1.0
          in
          let probes =
            float_of_int (List.length bindings * ceil_log2 n)
          in
          let cost_global = card *. (1.0 +. af) in
          let cost_subtree = probes +. (card *. coverage *. (1.0 +. af)) in
          if cost_subtree < cost_global then begin
            Metrics.incr c_plan_subtree;
            prune
              (List.sort_uniq compare
                 (List.concat_map
                    (fun b ->
                      Tag_index.postings_in index id ~lo:b
                        ~hi:(Tree.subtree_end tree b))
                    bindings))
          end
          else begin
            Metrics.incr c_plan_index;
            prune (Tag_index.postings index id)
          end))

(* Candidate roots for a first segment entered on the descendant axis:
   index postings, class-filtered, run-pruned. *)
let seed_candidates ?value_index ?summary store index semantics
    (s : Decompose.step) =
  let p = s.Decompose.pnode in
  match summary with
  | Some sp when Summary_prune.empty_for sp p ->
      Metrics.incr c_plan_summary;
      []
  | _ ->
      let cands = index_candidates ?value_index store index p in
      let cands =
        match summary with
        | None -> cands
        | Some sp ->
            Metrics.incr c_plan_summary;
            Summary_prune.restrict sp p cands
      in
      prune_candidates store semantics cands

(* Evaluate one NoK segment from the given candidate roots (sorted).
   Returns the bindings of the segment's last trunk step, sorted and
   deduplicated. *)
let eval_segment store index mode (seg : Decompose.segment) roots scanned =
  match seg.Decompose.steps with
  | [] -> invalid_arg "Engine: empty segment"
  | first :: rest ->
      let qualify step v =
        Nok_match.qualifies store index mode step.Decompose.pnode
          ~preds:step.Decompose.preds v
      in
      let start =
        List.filter
          (fun r ->
            incr scanned;
            qualify first r)
          roots
      in
      let expand step bindings =
        let start b =
          (* a trunk step binds among b's children (Child) or among b's
             later siblings (Following_sibling) *)
          match step.Decompose.pnode.Pattern.axis with
          | Pattern.Child -> Store.first_child store b
          | Pattern.Following_sibling -> Store.following_sibling store b
          | Pattern.Descendant -> invalid_arg "Engine: descendant step inside a segment"
        in
        List.concat_map
          (fun b ->
            let rec scan u acc =
              if u = Tree.nil then List.rev acc
              else begin
                incr scanned;
                let acc = if qualify step u then u :: acc else acc in
                scan (Store.following_sibling store u) acc
              end
            in
            scan (start b) [])
          bindings
      in
      let out = List.fold_left (fun bs step -> expand step bs) start rest in
      List.sort_uniq compare out

(* Summary-path plan: when the trunk uses only child and descendant
   axes and ends in a tag test, the query is resolved bottom-up from
   the LAST step's class-filtered postings instead of top-down through
   segment evaluation and structural joins.  [match_up i v] decides
   whether [v] can carry step [i] with all earlier steps bound above it:
   child edges have a unique parent; descendant edges search proper
   ancestors, skipping any whose summary class is inadmissible for the
   earlier step (a pure array lookup, no I/O).  Verdicts are memoized
   per (step, node), so every distinct chain node is qualified — and its
   page visited — at most once, however many candidates share it.

   Answer-equivalent to the segment/join plan under all three
   semantics: the same [Nok_match.qualifies] checks (tag, value,
   predicate branches, access mode) decide membership at every
   position, existential ancestor choice matches the semi-join
   semantics, and descendant edges re-check connecting paths with
   [Nok_match.path_clear], which enforces exactly the ε-STD condition
   (and is a no-op outside path semantics).

   [summary_path_steps] is the plan-shape test, shared with {!explain};
   [summary_path_filter] returns the plan as data — the sorted
   candidate list and the qualification predicate — so the stream
   applies the filter lazily, one candidate at a time, instead of
   materializing the whole answer list. *)
let summary_path_steps (plan : Decompose.plan) =
  let steps =
    Array.of_list
      (List.concat_map
         (fun (s : Decompose.segment) -> s.Decompose.steps)
         plan.Decompose.segments)
  in
  let k = Array.length steps - 1 in
  let usable =
    k >= 0
    && (match steps.(k).Decompose.pnode.Pattern.test with
       | Pattern.Tag _ -> true
       | Pattern.Wildcard -> false)
    && Array.for_all
         (fun (st : Decompose.step) ->
           st.Decompose.pnode.Pattern.axis <> Pattern.Following_sibling)
         steps
  in
  if usable then Some steps else None

let summary_path_filter ?value_index ~summary store index mode semantics steps
    scanned =
  let k = Array.length steps - 1 in
  let axis i = steps.(i).Decompose.pnode.Pattern.axis in
  Metrics.incr c_plan_path;
  let last = steps.(k).Decompose.pnode in
  if Summary_prune.empty_for summary last then ([], fun _ -> false)
  else begin
    let cands = index_candidates ?value_index store index last in
    let cands = Summary_prune.restrict summary last cands in
    let cands = prune_candidates store semantics cands in
    let ps = Store.path_summary store in
    let adm =
      Array.map
        (fun (st : Decompose.step) ->
          Summary_prune.classes summary st.Decompose.pnode)
        steps
    in
    let admissible i v = adm.(i).(Path_summary.class_of ps v) in
    let qualify i v =
      incr scanned;
      Nok_match.qualifies store index mode steps.(i).Decompose.pnode
        ~preds:steps.(i).Decompose.preds v
    in
    let n = Tree.size (Store.tree store) in
    let memo = Hashtbl.create 512 in
    let rec match_up i v =
      match Hashtbl.find_opt memo ((i * n) + v) with
      | Some b -> b
      | None ->
          let above =
            if i = 0 then
              match axis 0 with
              | Pattern.Child -> v = Tree.root
              | Pattern.Descendant | Pattern.Following_sibling -> true
            else
              match axis i with
              | Pattern.Child ->
                  let u = Store.parent store v in
                  u <> Tree.nil && match_up (i - 1) u
              | Pattern.Descendant ->
                  let rec search u =
                    u <> Tree.nil
                    && ((admissible (i - 1) u
                        && match_up (i - 1) u
                        && Nok_match.path_clear store mode ~ctx:u v)
                       || search (Store.parent store u))
                  in
                  search (Store.parent store v)
              | Pattern.Following_sibling -> false
          in
          let b = above && qualify i v in
          Hashtbl.add memo ((i * n) + v) b;
          b
    in
    (cands, fun v -> match_up k v)
  end

(* Candidate roots of the plan's first segment: the document root for a
   child entry, class-filtered + run-pruned index postings for a
   descendant entry. *)
let first_roots ?value_index ?summary store index semantics
    (plan : Decompose.plan) =
  Trace.with_span "engine.index_seed" @@ fun () ->
  match plan.Decompose.segments with
  | [] -> []
  | seg :: _ -> (
      match seg.Decompose.entry_axis with
      | Pattern.Child -> [ Tree.root ]
      | Pattern.Following_sibling ->
          invalid_arg "Engine: query cannot start with following-sibling::"
      | Pattern.Descendant -> (
          match seg.Decompose.steps with
          | s :: _ -> seed_candidates ?value_index ?summary store index semantics s
          | [] -> []))

(** {1 Streaming evaluation}

    The one driver of the §4 pipeline.  Building a stream picks the
    source and stages it: the summary-path filter when the plan shape
    allows it, otherwise every segment but the last (with its joins)
    runs eagerly.  Answers are then produced chunk by chunk — from the
    filter's candidates, or from the last segment's candidate roots —
    so per-query result memory is bounded by the chunk size plus the
    document-order reorder margin, never by the answer count.  {!run}
    is a drain of this stream.

    Ordering invariant: every answer produced from a candidate root [r]
    has preorder >= [r] (the root binds the segment's first trunk step,
    and child / following-sibling expansion only moves forward in
    preorder).  Roots are consumed in ascending order, so once every
    root below a barrier has been evaluated, buffered answers below that
    barrier are final and can be emitted — the emitted sequence is
    exactly [sort_uniq] of the per-root outputs, whatever the group
    size. *)

(* Union of two sorted duplicate-free lists. *)
let merge_uniq xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: xs', y :: ys' ->
        if x < y then go (x :: acc) xs' ys
        else if y < x then go (y :: acc) xs ys'
        else go (x :: acc) xs' ys'
  in
  go [] xs ys

let rec take_n n l =
  if n = 0 then ([], l)
  else match l with [] -> ([], []) | x :: rest ->
    let taken, rem = take_n (n - 1) rest in
    (x :: taken, rem)

type stream = {
  st_store : Store.t;
  st_chunk : int;
  st_segments : int;
  st_scanned : int ref;
  st_joins : int ref;
  mutable st_src : src;
  mutable st_emitted : int;
  mutable st_peak : int;  (* high-water mark of buffered answers *)
  mutable st_done : bool; (* terminal: counters flushed, no more chunks *)
}

and src =
  | S_filter of int list * (int -> bool)
  | S_tail of tail
  | S_end

and tail = {
  tl_eval : int list -> int list;
  tl_group : int;
  mutable tl_roots : int list;   (* remaining candidate roots, ascending *)
  mutable tl_pending : int list; (* sorted answers >= the next barrier *)
}

type segment_eval =
  Nok_match.mode -> Decompose.segment -> int list -> int ref -> int list

let stream_with ?(options = default_options) ?value_index ?(chunk = 256) ~eval
    ~group store index pattern semantics =
  if chunk < 1 then invalid_arg "Engine.stream: chunk must be >= 1";
  if group < 1 then invalid_arg "Engine.stream: group must be >= 1";
  let plan = Decompose.plan pattern in
  let mode = match_mode options semantics in
  let summary = summary_analysis store pattern semantics in
  let scanned = ref 0 in
  let joins = ref 0 in
  let eval seg roots = eval mode seg roots scanned in
  let rec stage segments roots =
    match segments with
    | [] -> S_end
    | [ seg ] ->
        S_tail { tl_eval = eval seg; tl_group = group; tl_roots = roots; tl_pending = [] }
    | (seg : Decompose.segment) :: (next :: _ as rest) ->
        let bindings =
          Trace.with_span "engine.segment" @@ fun () -> eval seg roots
        in
        if bindings = [] then S_end
        else begin
          incr joins;
          let surviving =
            Trace.with_span "engine.join" @@ fun () ->
            let next_step =
              match next.Decompose.steps with
              | s :: _ -> s
              | [] -> invalid_arg "Engine: empty segment"
            in
            let dlist =
              join_candidates ?value_index ?summary store index ~semantics
                ~bindings next_step.Decompose.pnode
            in
            let pairs =
              match semantics with
              | Secure_path subject ->
                  Structural_join.secure_stack_tree_desc store ~subject
                    ~alist:bindings ~dlist
              | Insecure | Secure _ ->
                  Structural_join.stack_tree_desc store ~alist:bindings ~dlist
            in
            Structural_join.descendants_of_pairs pairs
          in
          stage rest surviving
        end
  in
  let src =
    Trace.with_span "engine.stream_stage" @@ fun () ->
    match (summary, summary_path_steps plan) with
    | Some sp, Some steps ->
        let cands, keep =
          summary_path_filter ?value_index ~summary:sp store index mode
            semantics steps scanned
        in
        S_filter (cands, keep)
    | _ ->
        stage plan.Decompose.segments
          (first_roots ?value_index ?summary store index semantics plan)
  in
  {
    st_store = store;
    st_chunk = chunk;
    st_segments = Decompose.segment_count plan;
    st_scanned = scanned;
    st_joins = joins;
    st_src = src;
    st_emitted = 0;
    st_peak = 0;
    st_done = false;
  }

(* Flush the stream's totals, and its store handle's storage and check
   counts, into the process counters exactly once — at exhaustion, or at
   [stream_close] for a stream abandoned early (the partial tallies are
   what the query actually cost). *)
let stream_finalize st =
  if not st.st_done then begin
    st.st_done <- true;
    st.st_src <- S_end;
    Metrics.incr c_queries;
    Metrics.add c_segments st.st_segments;
    Metrics.add c_joins !(st.st_joins);
    Metrics.add c_candidates !(st.st_scanned);
    Metrics.add c_answers st.st_emitted;
    Store.fold_metrics st.st_store
  end

let stream_next st =
  if st.st_done then []
  else begin
    let buf = ref [] in
    let n = ref 0 in
    let emit v =
      buf := v :: !buf;
      incr n;
      st.st_emitted <- st.st_emitted + 1
    in
    let rec fill () =
      if !n < st.st_chunk then
        match st.st_src with
        | S_end -> ()
        | S_filter ([], _) -> st.st_src <- S_end
        | S_filter (v :: rest, keep) ->
            st.st_src <- S_filter (rest, keep);
            if keep v then begin
              emit v;
              st.st_peak <- max st.st_peak !n
            end;
            fill ()
        | S_tail t -> (
            let barrier =
              match t.tl_roots with r :: _ -> r | [] -> max_int
            in
            match t.tl_pending with
            | a :: rest when a < barrier ->
                t.tl_pending <- rest;
                emit a;
                fill ()
            | _ -> (
                match t.tl_roots with
                | [] ->
                    (* pending is empty: everything below max_int was
                       emittable and the branch above drained it *)
                    st.st_src <- S_end
                | _ ->
                    let group, rest = take_n t.tl_group t.tl_roots in
                    t.tl_roots <- rest;
                    t.tl_pending <- merge_uniq t.tl_pending (t.tl_eval group);
                    st.st_peak <-
                      max st.st_peak (!n + List.length t.tl_pending);
                    fill ()))
    in
    fill ();
    if !n = 0 then begin
      stream_finalize st;
      []
    end
    else List.rev !buf
  end

let stream_close st = stream_finalize st

let stream_finished st = st.st_done

let stream_emitted st = st.st_emitted

let stream_peak_buffered st = st.st_peak

let stream_chunk_size st = st.st_chunk

let stream_scanned st = !(st.st_scanned)

let stream_joins st = !(st.st_joins)

let stream_segments st = st.st_segments

(* The sequential evaluator: one root per refill, so pending never holds
   more than one root's overlap. *)
let stream ?options ?value_index ?chunk store index pattern semantics =
  stream_with ?options ?value_index ?chunk ~eval:(eval_segment store index)
    ~group:1 store index pattern semantics

let stream_collect st =
  let rec go acc =
    match stream_next st with [] -> List.concat (List.rev acc) | c -> go (c :: acc)
  in
  go []

let drain st =
  let answers = stream_collect st in
  {
    answers;
    segments = stream_segments st;
    joins = stream_joins st;
    candidates_scanned = stream_scanned st;
  }

let run ?options ?value_index store index pattern semantics =
  Trace.with_span "engine.query" @@ fun () ->
  drain (stream ?options ?value_index store index pattern semantics)

(** {1 Full binding tuples}

    [run] returns the returning-node bindings, which is what the paper's
    experiments count.  The paper's formal result model (§4) is richer:
    "the (unsecured) evaluation of a twig query Q returns all of the
    possible sets of bindings of query pattern nodes to data nodes".
    [bindings] materializes those tuples for the trunk (predicates stay
    existential, as in XPath): one entry per trunk step, in trunk order.
    Enumeration is a straightforward navigational product — use it for
    result construction and auditing; it does not use the structural-join
    plan, so it is not the I/O-optimal path.  [limit] caps the number of
    tuples materialized. *)
let bindings ?(options = default_options) ?(limit = max_int) store index pattern
    semantics =
  let mode = match_mode options semantics in
  let trunk = Pattern.trunk pattern in
  let trunk_ids = List.map (fun (p : Pattern.pnode) -> p.Pattern.id) trunk in
  let preds (p : Pattern.pnode) =
    List.filter
      (fun (c : Pattern.pnode) -> not (List.mem c.Pattern.id trunk_ids))
      p.Pattern.children
  in
  let qualify p v = Nok_match.qualifies store index mode p ~preds:(preds p) v in
  let tree = Store.tree store in
  let candidates (p : Pattern.pnode) ctx =
    match p.Pattern.axis with
    | Pattern.Child ->
        let rec scan u acc =
          if u = Tree.nil then List.rev acc
          else scan (Store.following_sibling store u) (u :: acc)
        in
        scan (Store.first_child store ctx) []
    | Pattern.Following_sibling ->
        let rec scan u acc =
          if u = Tree.nil then List.rev acc
          else scan (Store.following_sibling store u) (u :: acc)
        in
        scan (Store.following_sibling store ctx) []
    | Pattern.Descendant ->
        let last = Tree.subtree_end tree ctx in
        let all = List.init (last - ctx) (fun i -> ctx + 1 + i) in
        if mode.Nok_match.path_semantics then
          List.filter (fun u -> Nok_match.path_clear store mode ~ctx u) all
        else all
  in
  let out = ref [] in
  let count = ref 0 in
  let rec go steps ctx acc =
    if !count < limit then
      match steps with
      | [] ->
          incr count;
          out := List.rev acc :: !out
      | (p : Pattern.pnode) :: rest ->
          List.iter
            (fun u -> if !count < limit && qualify p u then go rest u (u :: acc))
            (candidates p ctx)
  in
  (match trunk with
  | [] -> ()
  | (first : Pattern.pnode) :: rest -> (
      match first.Pattern.axis with
      | Pattern.Child -> if qualify first Tree.root then go rest Tree.root [ Tree.root ]
      | Pattern.Following_sibling ->
          invalid_arg "Engine.bindings: query cannot start with following-sibling::"
      | Pattern.Descendant ->
          let roots = index_candidates store index first in
          List.iter
            (fun r -> if !count < limit && qualify first r then go rest r [ r ])
            roots));
  List.rev !out

(** Human-readable evaluation plan: the strategy {!stream} picks on this
    handle, then the NoK segments, the joins between them, and the index
    candidate count seeding each segment.  The database-explain view of
    §3.1's decomposition. *)
let explain store index pattern =
  let plan = Decompose.plan pattern in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (if Store.summary_enabled store && summary_path_steps plan <> None then
       "strategy: summary path (bottom-up from the last step, no structural joins)"
     else "strategy: segments + joins");
  List.iteri
    (fun i (seg : Decompose.segment) ->
      if i > 0 then Buffer.add_string buf "\n  |X| structural join (ancestor-descendant)\n"
      else Buffer.add_char buf '\n';
      Buffer.add_string buf (Fmt.str "  segment %d: %a" (i + 1) Decompose.pp_segment seg);
      (match seg.Decompose.steps with
      | first :: _ ->
          let n_candidates =
            match seg.Decompose.entry_axis with
            | Pattern.Child -> 1
            | Pattern.Following_sibling -> 0
            | Pattern.Descendant ->
                List.length (index_candidates store index first.Decompose.pnode)
          in
          Buffer.add_string buf (Printf.sprintf "  [%d index candidates]" n_candidates);
          let preds = List.concat_map (fun st -> st.Decompose.preds) seg.Decompose.steps in
          if preds <> [] then
            Buffer.add_string buf
              (Printf.sprintf "  [%d predicate branches]" (List.length preds))
      | [] -> ()))
    plan.Decompose.segments;
  Buffer.contents buf

(** Convenience: parse and run an XPath string. *)
let query ?options ?value_index store index xpath semantics =
  run ?options ?value_index store index (Xpath.parse xpath) semantics

(** Count of answers only. *)
let count ?options ?value_index store index xpath semantics =
  List.length (query ?options ?value_index store index xpath semantics).answers
