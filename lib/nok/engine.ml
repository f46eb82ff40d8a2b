(** Secure twig-query evaluation: NoK subtree matching + structural joins
    (paper §4).

    The evaluator follows the paper's architecture: the pattern tree is
    decomposed ({!Decompose}) into NoK subtrees connected by ancestor–
    descendant edges; the first subtree's candidate roots come from the
    tag or value index — resident sorted arrays where §4.1 has "B+ trees
    on the subtree root's value or tag names to start the matching" —
    through one candidate pipeline ({!candidates}); each subtree is
    matched by navigational NPM with per-node ACCESS checks in the
    secure modes; and consecutive subtrees are combined with
    (ε-)Stack-Tree-Desc.

    Semantics: under [Secure] (Cho et al., the paper's default, §4) a
    binding survives iff every *bound* node is accessible; intermediate
    nodes on ancestor–descendant paths are unconstrained.  Under
    [Secure_path] (Gabillon–Bruno, §4.2) the connecting paths must be
    fully accessible too, enforced by ε-STD. *)

module Store = Dolx_core.Secure_store
module Tree = Dolx_xml.Tree
module Tag_index = Dolx_index.Tag_index
module Postings = Dolx_index.Postings
module Path_summary = Dolx_index.Path_summary
module Metrics = Dolx_obs.Metrics
module Trace = Dolx_obs.Trace

let c_queries = Metrics.counter "engine.queries"

let c_segments = Metrics.counter "engine.segments"

let c_joins = Metrics.counter "engine.joins"

let c_candidates = Metrics.counter "engine.candidates_scanned"

let c_answers = Metrics.counter "engine.answers"

let c_plan_summary = Metrics.counter "engine.plan_summary_prune"

let c_plan_path = Metrics.counter "engine.plan_summary_path"

let c_pruned = Metrics.counter "engine.candidates_pruned"

let c_summary_pruned = Metrics.counter "engine.summary_pruned"

let c_resident = Metrics.counter "engine.resident_decisions"

type semantics =
  | Insecure              (** plain NoK evaluation, no access control *)
  | Secure of int         (** ε-NoK for the given subject (Cho et al.) *)
  | Secure_path of int    (** ε-NoK + ε-STD (Gabillon–Bruno, §4.2) *)

let match_mode = function
  | Insecure -> Nok_match.insecure
  | Secure s -> Nok_match.secure s
  | Secure_path s -> Nok_match.secure ~path_semantics:true s

type result = {
  answers : int list;     (* returning-node bindings, document order *)
  segments : int;         (* NoK subtrees evaluated *)
  joins : int;            (* structural joins performed *)
  candidates_scanned : int;
}

let subject_of = function Insecure -> None | Secure s | Secure_path s -> Some s

(* Deliberate fault site for the differential fuzzer's self-test: when
   armed, run-index pruning silently drops node 2 from every candidate
   set, so secure answers lose it while the runs-off path keeps it.
   Armed only via DOLX_FUZZ_PLANT_BUG=prune; tests may toggle the ref. *)
let planted_bug = ref (Sys.getenv_opt "DOLX_FUZZ_PLANT_BUG" = Some "prune")

(* [p]'s postings, narrowed under a class analysis to the hull of [p]'s
   admissible classes' extent spans ({!Summary_prune.hull}): two binary
   searches.  Every admissible member lies inside the hull, so a
   class-filtered walk of the narrowed slice meets the same members as
   one of the whole slice, and passes over fewer that it must reject. *)
let narrowed_postings ?value_index ?summary store index (p : Pattern.pnode) =
  let cands = Nok_match.postings ?value_index store index p in
  match summary with
  | None -> cands
  | Some sp ->
      let lo, hi = Summary_prune.hull sp p in
      Postings.narrow cands ~lo ~hi

(* The one candidate pipeline, for the first segment's seed, the next
   segment at a join and the summary-path plan: a cursor over the
   members of [p]'s postings whose summary class is admissible for [p]
   and that the subject's runs admit.  No admissible class gives an
   empty cursor; otherwise the walk covers only the admissible classes'
   span hull.  The class is checked first, so the runs are consulted
   for admissible candidates only; a denied run is skipped with one seek
   in the slice, and [pruned] counts the admissible candidates skipped
   that way (the stream folds it into [engine.candidates_pruned]).
   Nothing is walked until the caller pulls, so a stream that closes
   early walks, and counts, only what it pulled.  Pruning is safe under
   both secure semantics: a pruned candidate would fail its own [visit]
   when qualified or when re-seeding the next segment. *)
let candidates ?value_index ?summary ~pruned store index semantics
    (p : Pattern.pnode) =
  if Option.is_some summary then Metrics.incr c_plan_summary;
  match summary with
  | Some sp when Summary_prune.empty_for sp p -> Postings.cursor Postings.empty
  | _ ->
      let cands = narrowed_postings ?value_index ?summary store index p in
      let admissible =
        match summary with
        | None -> fun _ -> true
        | Some sp ->
            let a = Summary_prune.classes sp p and ps = Store.path_summary store in
            (* [Summary_prune.mem], spelled out: this runs per posting,
               and a call across modules is not inlined *)
            fun v -> Bytes.get a (Path_summary.class_of ps v) <> '\000'
      in
      let gate =
        match subject_of semantics with
        | Some s when Store.run_index_enabled store ->
            Some (Store.next_accessible store ~subject:s)
        | _ -> None
      in
      let only =
        if !planted_bug && Option.is_some gate then fun v -> v <> 2 && admissible v
        else admissible
      in
      let skipped i j =
        if Option.is_none summary then pruned := !pruned + (j - i)
        else
          for k = i to j - 1 do
            if admissible (Postings.get cands k) then incr pruned
          done
      in
      Postings.cursor ?gate ~only ~skipped cands

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
        let next = Store.next_accessible store ~subject:s in
        let dead ~lo ~hi = next lo > hi in
        ignore (Summary_prune.drop_dead_spans sp ~dead)
    | _ -> ());
    Metrics.add c_summary_pruned (Summary_prune.pruned_classes sp);
    Some sp
  end

(* Evaluate one NoK segment from the given candidate roots (sorted).
   Returns the bindings of the segment's last trunk step, sorted and
   deduplicated. *)
let eval_segment store index mode (seg : Decompose.segment) roots scanned =
  match seg.Decompose.steps with
  | [] -> invalid_arg "Engine: empty segment"
  | first :: rest ->
      let qualify step =
        Nok_match.qualifies store index mode step.Decompose.pnode
          ~preds:step.Decompose.preds
      in
      let start =
        let q = qualify first in
        List.filter
          (fun r ->
            incr scanned;
            q r)
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
        let q = qualify step in
        List.concat_map
          (fun b ->
            let rec scan u acc =
              if u = Tree.nil then List.rev acc
              else begin
                incr scanned;
                let acc = if q u then u :: acc else acc in
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
   segment evaluation and structural joins.  [decide l i v] decides
   whether [v] can carry step [i] with all earlier steps bound above it:
   child edges have a unique parent; descendant edges search proper
   ancestors, skipping any whose summary class is inadmissible for the
   earlier step (a pure array lookup, no I/O).  Each candidate is asked
   about the last step once; an earlier step is only ever asked about a
   proper ancestor of the current candidate, and candidates ascend, so
   its verdicts are kept in a {!chain} that forgets an ancestor once the
   candidates leave its subtree.  Every distinct chain node is thus
   qualified at most once, however many candidates share it.

   Every node asked about step [i] lies in a class admissible for [i]:
   the last step's candidates passed the class filter in the cursor,
   and an earlier step's ancestor passes it on either axis before it is
   asked.  So a plain step ({!resident_step}) is decided without its
   page: its class already fixes its tag, and the run index holds its
   access verdict.  Every other step keeps [Nok_match.qualifies], which
   visits the node's page.

   Answer-equivalent to the segment/join plan under all three
   semantics: the same checks (tag, value, predicate branches, access
   mode) decide membership at every position, existential ancestor
   choice matches the semi-join semantics, and descendant edges
   re-check connecting paths with [Nok_match.path_clear], which
   enforces exactly the ε-STD condition (and is skipped outside path
   semantics).

   [summary_path_steps] is the plan-shape test, shared with {!explain};
   [summary_path_loop] builds the plan as data — the candidate cursor
   and a {!loop} record — so the stream pulls and decides one candidate
   at a time, and holds neither the candidate nor the answer list. *)
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

(* No predicate, no value test, a tag test: what [Nok_match.qualifies]
   would read from the page is the tag, which an admitted class already
   fixes (a tag step's classes come from [Path_summary.classes_with_tag]),
   and the access verdict. *)
let plain_step (st : Decompose.step) =
  st.Decompose.preds = []
  && st.Decompose.pnode.Pattern.value = None
  &&
  match st.Decompose.pnode.Pattern.test with
  | Pattern.Tag _ -> true
  | Pattern.Wildcard -> false

(* A plain step needs the access verdict only under secure semantics,
   and the run index holds it (a counted check, quarantine and the
   [access] canary included, with no page touched). *)
let resident_step store semantics st =
  plain_step st
  && match semantics with
     | Insecure -> true
     | Secure _ | Secure_path _ -> Store.run_index_enabled store

(* One step's verdicts for proper ancestors of the current candidate,
   ascending preorder: node [pre.(j)] and its verdict [ok.(j)].  The
   entries nest, so the ones a later candidate leaves behind are a
   suffix.  Bounded by the document depth; a lookup allocates nothing. *)
type chain = { mutable pre : int array; mutable ok : bool array; mutable len : int }

let chain () = { pre = Array.make 16 0; ok = Array.make 16 false; len = 0 }

(* The number of entries below [u]: [u]'s position, or where it goes.
   Searched from the deep end, where the lookups land. *)
let chain_pos c u =
  let j = ref c.len in
  while !j > 0 && c.pre.(!j - 1) >= u do
    decr j
  done;
  !j

(* Insert at [j], shifting the entries above it with a plain loop: a
   chain holds a few entries, fewer than a blit's call costs. *)
let chain_insert c j u ok =
  if c.len = Array.length c.pre then begin
    c.pre <- Array.append c.pre c.pre;
    c.ok <- Array.append c.ok c.ok
  end;
  let pre = c.pre and oks = c.ok in
  for m = c.len downto j + 1 do
    pre.(m) <- pre.(m - 1);
    oks.(m) <- oks.(m - 1)
  done;
  pre.(j) <- u;
  oks.(j) <- ok;
  c.len <- c.len + 1

(* The summary-path plan's state, built once per stream.  The decision
   functions below read the tree and the class map through the arrays
   held here: each would otherwise be a call into another library per
   ancestor hop, and the default build compiles every library
   [-opaque], so none of those calls is inlined. *)
type loop = {
  lp_cands : Postings.cursor;  (* the last step's candidates *)
  lp_k : int;  (* the last step *)
  lp_parents : int array;  (* node -> parent, [Tree.nil] for the root *)
  lp_sizes : int array;  (* node -> subtree size *)
  lp_class : int array;  (* node -> summary class *)
  lp_adm : Bytes.t array;  (* step -> one byte per class, non-zero = admissible *)
  lp_child : bool array;  (* step -> child axis (else descendant) *)
  lp_plain : bool array;  (* step -> {!resident_step} *)
  lp_quals : (int -> bool) array;  (* step -> [Nok_match.qualifies], other steps *)
  lp_store : Store.t;
  lp_subject : int;  (* [-1] under [Insecure] *)
  lp_path : bool;  (* [Secure_path]: connecting paths are checked *)
  lp_path_clear : ctx:int -> int -> bool;
  lp_chains : chain array;  (* one per step but the last *)
  lp_scanned : int ref;
  lp_resident : int ref;
}

let admissible l i u = Bytes.get l.lp_adm.(i) l.lp_class.(u) <> '\000'

let qualify l i v =
  incr l.lp_scanned;
  if l.lp_plain.(i) then begin
    incr l.lp_resident;
    l.lp_subject < 0 || Store.accessible l.lp_store ~subject:l.lp_subject v
  end
  else l.lp_quals.(i) v

(* [match_up] is [decide] through the step's chain, for [i < k] *)
let rec decide l i v =
  (if i = 0 then (not l.lp_child.(0)) || v = Tree.root
   else
     let u = l.lp_parents.(v) in
     if l.lp_child.(i) then u <> Tree.nil && admissible l (i - 1) u && match_up l (i - 1) u
     else search l i v u)
  && qualify l i v

and search l i v u =
  u <> Tree.nil
  && ((admissible l (i - 1) u
      && match_up l (i - 1) u
      && ((not l.lp_path) || l.lp_path_clear ~ctx:u v))
     || search l i v l.lp_parents.(u))

and match_up l i u =
  let c = l.lp_chains.(i) in
  let j = chain_pos c u in
  if j < c.len && c.pre.(j) = u then c.ok.(j)
  else begin
    (* deciding [u] touches only the chains of steps below [i], so
       [j] is still [u]'s place *)
    let b = decide l i u in
    chain_insert c j u b;
    b
  end

(* Does candidate [v] answer?  First each chain forgets the entries
   whose subtree ends before [v]. *)
let keep l v =
  for i = 0 to l.lp_k - 1 do
    let c = l.lp_chains.(i) in
    while c.len > 0 && (let p = c.pre.(c.len - 1) in p + l.lp_sizes.(p) - 1 < v) do
      c.len <- c.len - 1
    done
  done;
  decide l l.lp_k v

let summary_path_loop ?value_index ~summary ~pruned ~resident store index
    mode semantics steps scanned =
  let k = Array.length steps - 1 in
  Metrics.incr c_plan_path;
  let cands =
    candidates ?value_index ~summary ~pruned store index semantics
      steps.(k).Decompose.pnode
  in
  let tree = Store.tree store in
  let plain = Array.map (resident_step store semantics) steps in
  {
    lp_cands = cands;
    lp_k = k;
    lp_parents = Tree.parents tree;
    lp_sizes = Tree.subtree_sizes tree;
    lp_class = Path_summary.class_map (Store.path_summary store);
    lp_adm =
      Array.map
        (fun (st : Decompose.step) -> Summary_prune.classes summary st.Decompose.pnode)
        steps;
    lp_child =
      Array.map
        (fun (st : Decompose.step) -> st.Decompose.pnode.Pattern.axis = Pattern.Child)
        steps;
    lp_plain = plain;
    lp_quals =
      Array.mapi
        (fun i (st : Decompose.step) ->
          if plain.(i) then Fun.const true
          else
            Nok_match.qualifies store index mode st.Decompose.pnode
              ~preds:st.Decompose.preds)
        steps;
    lp_store = store;
    lp_subject = Option.value (subject_of semantics) ~default:(-1);
    lp_path = (match semantics with Secure_path _ -> true | Insecure | Secure _ -> false);
    lp_path_clear = Nok_match.path_clear store mode;
    lp_chains = Array.init k (fun _ -> chain ());
    lp_scanned = scanned;
    lp_resident = resident;
  }

(* Candidate roots of the plan's first segment: the document root for a
   child entry, the candidate pipeline for a descendant entry. *)
let first_roots ?value_index ?summary ~pruned store index semantics
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
          | s :: _ ->
              Postings.drain
                (candidates ?value_index ?summary ~pruned store index
                   semantics s.Decompose.pnode)
          | [] -> []))

(** {1 Streaming evaluation}

    The one driver of the §4 pipeline.  Building a stream picks the
    source and stages it: the summary-path filter when the plan shape
    allows it, otherwise every segment but the last (with its joins)
    runs eagerly.  Answers are then produced chunk by chunk — from the
    filter's candidate cursor, or from the last segment's candidate
    roots.  The summary-path plan stages nothing: it holds the chunk,
    the cursor and one ancestor {!chain} per earlier step, so its
    memory is O(chunk + steps × depth) words whatever the candidate or
    answer count.  The segment plan also holds the lists it staged (the
    joined bindings and the last segment's candidate roots, each at
    most its postings' length) and one root's reorder margin.  {!run}
    is a drain of this stream.

    Ordering invariant: every answer produced from a candidate root [r]
    has preorder >= [r] (the root binds the segment's first trunk step,
    and child / following-sibling expansion only moves forward in
    preorder).  Roots are consumed in ascending order, so once every
    root below a barrier has been evaluated, buffered answers below that
    barrier are final and can be emitted — the emitted sequence is
    exactly [sort_uniq] of the per-root outputs. *)

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

type stream = {
  st_store : Store.t;
  st_index : Tag_index.t;
  st_mode : Nok_match.mode;
  st_chunk : int;
  st_segments : int;
  st_scanned : int ref;
  st_pruned : int ref;  (* admissible candidates skipped in denied runs *)
  st_resident : int ref;  (* qualifications decided without a page *)
  st_joins : int ref;
  mutable st_buf : int array;  (* the chunk in progress, grown up to [st_chunk] *)
  mutable st_src : src;
  mutable st_emitted : int;
  mutable st_peak : int;  (* high-water mark of buffered answers *)
  mutable st_done : bool; (* terminal: counters flushed, no more chunks *)
}

and src =
  | S_loop of loop
  | S_tail of tail
  | S_end

and tail = {
  tl_seg : Decompose.segment;
  mutable tl_roots : int list;   (* remaining candidate roots, ascending *)
  mutable tl_pending : int list; (* sorted answers >= the next barrier *)
}

let stream ?value_index ?(chunk = 256) store index pattern semantics =
  if chunk < 1 then invalid_arg "Engine.stream: chunk must be >= 1";
  let plan = Decompose.plan pattern in
  let mode = match_mode semantics in
  let summary = summary_analysis store pattern semantics in
  let scanned = ref 0 in
  let pruned = ref 0 in
  let resident = ref 0 in
  let joins = ref 0 in
  let rec stage segments roots =
    match segments with
    | [] -> S_end
    | [ seg ] -> S_tail { tl_seg = seg; tl_roots = roots; tl_pending = [] }
    | (seg : Decompose.segment) :: (next :: _ as rest) ->
        let bindings =
          Trace.with_span "engine.segment" @@ fun () ->
          eval_segment store index mode seg roots scanned
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
              Postings.drain
                (candidates ?value_index ?summary ~pruned store index
                   semantics next_step.Decompose.pnode)
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
        S_loop
          (summary_path_loop ?value_index ~summary:sp ~pruned ~resident store
             index mode semantics steps scanned)
    | _ ->
        stage plan.Decompose.segments
          (first_roots ?value_index ?summary ~pruned store index semantics
             plan)
  in
  {
    st_store = store;
    st_index = index;
    st_mode = mode;
    st_chunk = chunk;
    st_segments = Decompose.segment_count plan;
    st_scanned = scanned;
    st_pruned = pruned;
    st_resident = resident;
    st_joins = joins;
    st_buf = Array.make (Int.min chunk 64) 0;
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
    Metrics.add c_pruned !(st.st_pruned);
    Metrics.add c_resident !(st.st_resident);
    Metrics.add c_answers st.st_emitted;
    Store.fold_metrics st.st_store
  end

(* Put [v] at position [n] of the chunk in progress. *)
let emit st n v =
  if n = Array.length st.st_buf then begin
    let b = Array.make (Int.min st.st_chunk (2 * n)) 0 in
    Array.blit st.st_buf 0 b 0 n;
    st.st_buf <- b
  end;
  st.st_buf.(n) <- v;
  st.st_emitted <- st.st_emitted + 1

(* Fill the chunk from position [n] on; each returns the chunk's
   length. *)
let rec fill_loop st l n =
  if n >= st.st_chunk then n
  else
    let v = Postings.next l.lp_cands in
    if v < 0 then begin
      st.st_src <- S_end;
      n
    end
    else if keep l v then begin
      emit st n v;
      st.st_peak <- Int.max st.st_peak (n + 1);
      fill_loop st l (n + 1)
    end
    else fill_loop st l n

let rec fill_tail st t n =
  if n >= st.st_chunk then n
  else
    let barrier = match t.tl_roots with r :: _ -> r | [] -> max_int in
    match t.tl_pending with
    | a :: rest when a < barrier ->
        t.tl_pending <- rest;
        emit st n a;
        fill_tail st t (n + 1)
    | _ -> (
        match t.tl_roots with
        | [] ->
            (* pending is empty: everything below max_int was emittable
               and the branch above drained it *)
            st.st_src <- S_end;
            n
        | r :: rest ->
            (* one root per refill, so pending never holds more than one
               root's overlap *)
            t.tl_roots <- rest;
            t.tl_pending <-
              merge_uniq t.tl_pending
                (eval_segment st.st_store st.st_index st.st_mode t.tl_seg [ r ]
                   st.st_scanned);
            st.st_peak <- Int.max st.st_peak (n + List.length t.tl_pending);
            fill_tail st t n)

(* The first [n] entries of [buf], consed from the end: one cell per
   answer, no reversal. *)
let rec chunk_list buf n acc = if n = 0 then acc else chunk_list buf (n - 1) (buf.(n - 1) :: acc)

let stream_next st =
  if st.st_done then []
  else begin
    let n =
      match st.st_src with
      | S_end -> 0
      | S_loop l -> fill_loop st l 0
      | S_tail t -> fill_tail st t 0
    in
    (* the call whose refill exhausts the source finalizes, so the
       chunk it returns is known to be the last *)
    (match st.st_src with S_end -> stream_finalize st | _ -> ());
    chunk_list st.st_buf n []
  end

let stream_close st = stream_finalize st

let stream_finished st = st.st_done

let stream_emitted st = st.st_emitted

let stream_peak_buffered st = st.st_peak

let stream_scanned st = !(st.st_scanned)

let stream_joins st = !(st.st_joins)

let stream_segments st = st.st_segments

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

let run ?value_index store index pattern semantics =
  Trace.with_span "engine.query" @@ fun () ->
  drain (stream ?value_index store index pattern semantics)

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
let bindings ?(limit = max_int) store index pattern semantics =
  let mode = match_mode semantics in
  let trunk = Pattern.trunk pattern in
  let trunk_ids = List.map (fun (p : Pattern.pnode) -> p.Pattern.id) trunk in
  let preds (p : Pattern.pnode) =
    List.filter
      (fun (c : Pattern.pnode) -> not (List.mem c.Pattern.id trunk_ids))
      p.Pattern.children
  in
  let qualify p v = Nok_match.qualifies store index mode p ~preds:(preds p) v in
  let path_clear = Nok_match.path_clear store mode in
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
          List.filter (fun u -> path_clear ~ctx u) all
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
          let roots = Postings.to_list (Nok_match.postings store index first) in
          List.iter
            (fun r -> if !count < limit && qualify first r then go rest r [ r ])
            roots));
  List.rev !out

(** Human-readable evaluation plan: the strategy {!stream} picks on this
    handle, then the NoK segments and the joins between them.  The
    summary-path plan's estimated cost is its last step's admissible
    class count and the candidates its walk covers, the postings inside
    those classes' span hull (before any subject's dead spans are
    dropped); the segment plan's is the index candidate count seeding
    each segment.  The summary-path plan also names the trunk steps it
    decides without a page ({!resident_step}).  The database-explain
    view of §3.1's decomposition. *)
let explain store index pattern =
  let plan = Decompose.plan pattern in
  let buf = Buffer.create 256 in
  let summary_path =
    if Store.summary_enabled store then summary_path_steps plan else None
  in
  (match summary_path with
  | Some steps ->
      let last = steps.(Array.length steps - 1).Decompose.pnode in
      let summary =
        Summary_prune.analyze
          ~table:(Tree.tag_table (Store.tree store))
          (Store.path_summary store) pattern
      in
      Buffer.add_string buf
        (Printf.sprintf
           "strategy: summary path (bottom-up from the last step, no \
            structural joins)\n\
           \  estimated cost: %d admissible classes, %d index candidates in \
            their span hull (of %d postings)"
           (Summary_prune.cardinal summary last)
           (Postings.length (narrowed_postings ~summary store index last))
           (Postings.length (Nok_match.postings store index last)));
      (* the steps [Insecure] decides without a page; secure semantics
         decide the same ones when the run index is on *)
      let plain =
        List.concat
          (List.mapi
             (fun i (st : Decompose.step) ->
               match st.Decompose.pnode.Pattern.test with
               | Pattern.Tag t when resident_step store Insecure st ->
                   [ Printf.sprintf "%d %s" (i + 1) t ]
               | _ -> [])
             (Array.to_list steps))
      in
      Buffer.add_string buf
        (if plain = [] then "\n  steps decided without a page: none"
         else
           Printf.sprintf "\n  steps decided without a page: %s (%s)"
             (String.concat ", " plain)
             (if Store.run_index_enabled store then
                "the class map; under secure semantics the run index too"
              else "the class map, under Insecure only: the run index is off"))
  | None -> Buffer.add_string buf "strategy: segments + joins");
  List.iteri
    (fun i (seg : Decompose.segment) ->
      if i > 0 then Buffer.add_string buf "\n  |X| structural join (ancestor-descendant)\n"
      else Buffer.add_char buf '\n';
      Buffer.add_string buf (Fmt.str "  segment %d: %a" (i + 1) Decompose.pp_segment seg);
      (match seg.Decompose.steps with
      | first :: _ ->
          if summary_path = None then begin
            let n_candidates =
              match seg.Decompose.entry_axis with
              | Pattern.Child -> 1
              | Pattern.Following_sibling -> 0
              | Pattern.Descendant ->
                  Postings.length (Nok_match.postings store index first.Decompose.pnode)
            in
            Buffer.add_string buf (Printf.sprintf "  [%d index candidates]" n_candidates)
          end;
          let preds = List.concat_map (fun st -> st.Decompose.preds) seg.Decompose.steps in
          if preds <> [] then
            Buffer.add_string buf
              (Printf.sprintf "  [%d predicate branches]" (List.length preds))
      | [] -> ()))
    plan.Decompose.segments;
  Buffer.contents buf

(** Convenience: parse and run an XPath string. *)
let query ?value_index store index xpath semantics =
  run ?value_index store index (Xpath.parse xpath) semantics

(** Count of answers only. *)
let count ?value_index store index xpath semantics =
  List.length (query ?value_index store index xpath semantics).answers
