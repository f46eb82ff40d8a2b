(** Secure twig-query evaluation (paper §4): tag-index seeded NoK
    subtree matching combined with (ε-)Stack-Tree-Desc structural joins.

    Semantics: under {!Secure} (Cho et al., the paper's default) a
    binding survives iff every bound node is accessible — intermediate
    nodes on ancestor–descendant paths are unconstrained, so plain STD
    suffices after ε-NoK (the paper's Theorem 1).  Under {!Secure_path}
    (Gabillon–Bruno, §4.2) connecting paths must be fully accessible
    too, enforced by ε-STD and path-checked predicates. *)

module Store = Dolx_core.Secure_store

type semantics =
  | Insecure            (** plain NoK evaluation, no access control *)
  | Secure of int       (** ε-NoK for the given subject (Cho et al.) *)
  | Secure_path of int  (** ε-NoK + ε-STD (Gabillon–Bruno, §4.2) *)

type result = {
  answers : int list;  (** returning-node bindings, document order, distinct *)
  segments : int;      (** NoK subtrees evaluated *)
  joins : int;         (** structural joins performed *)
  candidates_scanned : int;
}

(** Evaluate a pattern: a drain of {!stream}.  When a [value_index] is
    supplied, segment roots with a text-equality constraint draw their
    candidates from it instead of the (larger) tag postings. *)
val run :
  ?value_index:Dolx_index.Value_index.t -> Store.t -> Dolx_index.Tag_index.t ->
  Pattern.t -> semantics -> result

(** Parse and evaluate an XPath string.
    @raise Xpath.Parse_error on a malformed query. *)
val query :
  ?value_index:Dolx_index.Value_index.t -> Store.t -> Dolx_index.Tag_index.t ->
  string -> semantics -> result

(** Number of answers only. *)
val count :
  ?value_index:Dolx_index.Value_index.t -> Store.t -> Dolx_index.Tag_index.t ->
  string -> semantics -> int

(** Materialize full trunk-binding tuples — the paper's §4 result model
    ("all of the possible sets of bindings"): each tuple lists one data
    node per trunk step, in trunk order; predicates remain existential.
    A navigational product for result construction and auditing, not the
    I/O-optimal join path.  [limit] caps the tuples materialized. *)
val bindings :
  ?limit:int -> Store.t -> Dolx_index.Tag_index.t -> Pattern.t -> semantics ->
  Dolx_xml.Tree.node list list

(** Human-readable evaluation plan: a leading line naming the strategy
    {!stream} runs on this handle (summary path, or segments + joins)
    and its estimated cost, then the segments and joins.  The summary
    path's cost is its last step's admissible class count and the
    postings inside those classes' span hull; the segment plan's is the
    index candidate count seeding each segment.  A summary-path plan also
    names the trunk steps it decides without a page ({!resident_step}). *)
val explain : Store.t -> Dolx_index.Tag_index.t -> Pattern.t -> string

(** {1 Evaluator internals} *)

(** Does the summary-path plan decide trunk step [step] on this handle
    without reading a page?  When [false] the step reads its page
    ({!Nok_match.qualifies}).  Only a plain step — no predicate, no value
    test, a tag test — is decided without a page: under [Insecure] its
    admitted class alone decides it ([true]: the class fixes the tag),
    under secure semantics with the run index on its run verdict does:
    a compare inside a run segment the loop holds, or one
    {!Dolx_core.Secure_store.locate}, each counted as one check and one
    run answer ({!Dolx_core.Secure_store.count_run_checks}), quarantine
    and the [access] canary included, no page touched.  That decision
    holds only for nodes whose summary class is admissible for the step,
    and there it equals {!Nok_match.qualifies}; the plan asks about no
    other node, and counts each such decision in
    [engine.resident_decisions].  {!explain} names the steps this holds
    for. *)
val resident_step : Store.t -> semantics -> Decompose.step -> bool

(** Class analysis of the query against the handle's path summary
    ({!Summary_prune}); [None] when the summary tier is disabled on this
    handle.  Under secure semantics, classes whose extent span holds no
    accessible node are additionally dropped via the run index.  Updates
    the [engine.summary_pruned] counter. *)
val summary_analysis :
  Store.t -> Pattern.t -> semantics -> Summary_prune.t option

(** {1 Streaming evaluation}

    The single driver of the §4 pipeline.  Building a stream picks the
    plan and stages it: the summary-path decision loop (answer bottom-up
    from the last step's class-filtered postings) when the summary tier is on
    and the trunk uses only child and descendant axes and ends in a tag
    test; otherwise every segment but the last is evaluated eagerly and
    joined with (ε-)Stack-Tree-Desc, the next segment's candidates
    drawn from the same index pipeline as the first's.  Answers are then
    produced chunk by chunk.

    Memory.  The summary-path plan stages nothing: each {!stream_next}
    walks the index's resident postings one candidate at a time through
    the run-gated walk every plan shares ({!Nok_match.walk}: a candidate
    inside the run segment it holds passes by compare, a denied segment
    is skipped by one gallop), and decides each in a loop over arrays the stream
    fetched once (the tree's parents and subtree sizes, the summary's
    class map, each step's admissible classes), keeping one verdict per
    ancestor and earlier step; it allocates nothing per candidate.  So a
    stream holds O([chunk] + steps × document depth) words, bounded by
    neither the candidate nor the answer count.  Every plan writes a
    chunk's answers into a buffer the stream keeps, and {!stream_next}
    conses the returned list from its end, one cell per answer.  The segment
    plan emits the last segment's candidate roots one root at a time,
    holding the chunk plus one root's reorder margin, and also the lists
    it staged: the joined bindings and those candidate roots, each at
    most as long as its postings.

    {!run} drains this stream; the run verdicts the loop decided by
    compare reach the handle's check counts at the end of every refill,
    so {!Dolx_core.Secure_store.io_stats} are exact between chunks; the
    [engine.*] counters (candidates scanned and pruned included,
    tallied on the stream as they happen) are flushed, and the store handle's counts folded
    ({!Dolx_core.Secure_store.fold_metrics}), once, at exhaustion — or
    at {!stream_close} for a stream abandoned early, with the partial
    tallies of what it pulled. *)

type stream

(** Stage a pattern into a stream.  [chunk] (default 256) bounds each
    {!stream_next} batch; answers do not depend on it.
    @raise Invalid_argument on [chunk < 1]. *)
val stream :
  ?value_index:Dolx_index.Value_index.t -> ?chunk:int -> Store.t ->
  Dolx_index.Tag_index.t -> Pattern.t -> semantics -> stream

(** Next chunk of answers, document order, distinct, at most [chunk]
    long.  [[]] means exhausted.  The call that exhausts the source
    finalizes the stream: {!stream_finished} holds once it returns, so
    a non-empty chunk it returned is the last, and every later call
    returns [[]]. *)
val stream_next : stream -> int list

(** Finalize early: flush the partial statistics and drop the source.
    Idempotent; a later {!stream_next} returns [[]]. *)
val stream_close : stream -> unit

(** Drain to a list — equals [(run ...).answers] from the same inputs. *)
val stream_collect : stream -> int list

val stream_finished : stream -> bool
val stream_emitted : stream -> int

(** High-water mark of answers buffered at once (chunk in progress +
    reorder margin) — the bound asserted by [bench serve]. *)
val stream_peak_buffered : stream -> int

val stream_scanned : stream -> int
val stream_joins : stream -> int
val stream_segments : stream -> int
