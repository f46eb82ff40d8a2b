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

(** Evaluation options. *)
type options = {
  header_skip : bool;  (** use the in-memory page-header optimization (§3.3) *)
}

val default_options : options

val match_mode : options -> semantics -> Nok_match.mode

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
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> Store.t ->
  Dolx_index.Tag_index.t -> Pattern.t -> semantics -> result

(** Parse and evaluate an XPath string.
    @raise Xpath.Parse_error on a malformed query. *)
val query :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> Store.t ->
  Dolx_index.Tag_index.t -> string -> semantics -> result

(** Number of answers only. *)
val count :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> Store.t ->
  Dolx_index.Tag_index.t -> string -> semantics -> int

(** Materialize full trunk-binding tuples — the paper's §4 result model
    ("all of the possible sets of bindings"): each tuple lists one data
    node per trunk step, in trunk order; predicates remain existential.
    A navigational product for result construction and auditing, not the
    I/O-optimal join path.  [limit] caps the tuples materialized. *)
val bindings :
  ?options:options -> ?limit:int -> Store.t -> Dolx_index.Tag_index.t ->
  Pattern.t -> semantics -> Dolx_xml.Tree.node list list

(** Human-readable evaluation plan: a leading line naming the strategy
    {!stream} runs on this handle (summary path, or segments + joins),
    then the segments, joins and per-segment index candidate counts. *)
val explain : Store.t -> Dolx_index.Tag_index.t -> Pattern.t -> string

(** {1 Evaluator internals}

    The segment evaluator is the one part of the pipeline a caller may
    swap: [Dolx_exec] plugs in a pooled evaluator that partitions each
    segment's candidate roots across domains.  Staging, candidate
    seeding, the summary-path plan and the joins stay in {!stream_with}
    whatever the evaluator, so answers and statistics are identical to
    {!run} from the same inputs. *)

(** Deliberate fault site for the differential fuzzer's self-test: when
    armed, run-index candidate pruning silently drops node 2 from every
    pruned candidate set (run index on, secure semantics only).  Armed at
    startup by [DOLX_FUZZ_PLANT_BUG=prune]; tests may toggle the ref
    directly.  Never set on production paths. *)
val planted_bug : bool ref

(** Class analysis of the query against the handle's path summary
    ({!Summary_prune}); [None] when the summary tier is disabled on this
    handle.  Under secure semantics, classes whose extent span holds no
    accessible node are additionally dropped via the run index.  Updates
    the [engine.summary_pruned] counter. *)
val summary_analysis :
  Store.t -> Pattern.t -> semantics -> Summary_prune.t option

(** Evaluate one NoK segment from the given (sorted) candidate roots;
    returns the bindings of the segment's last trunk step, sorted and
    deduplicated.  [scanned] is incremented per candidate examined. *)
val eval_segment :
  Store.t -> Dolx_index.Tag_index.t -> Nok_match.mode -> Decompose.segment ->
  int list -> int ref -> int list

(** A segment evaluator: [eval mode seg roots scanned] must return what
    [eval_segment store index mode seg roots scanned] returns — the
    sorted, deduplicated bindings of [seg]'s last trunk step, with
    [scanned] advanced by the candidates examined. *)
type segment_eval =
  Nok_match.mode -> Decompose.segment -> int list -> int ref -> int list

(** {1 Streaming evaluation}

    The single driver of the §4 pipeline.  Building a stream picks the
    plan and stages it: the summary-path filter (answer bottom-up from
    the last step's class-filtered postings) when the summary tier is on
    and the trunk uses only child and descendant axes and ends in a tag
    test; otherwise every segment but the last is evaluated eagerly and
    joined with (ε-)Stack-Tree-Desc.  Answers are then produced chunk by
    chunk from the filter's candidates or the last segment's candidate
    roots, so per-query buffered-result memory is bounded by the chunk
    size plus the document-order reorder margin — never by the answer
    count.  {!run} drains this stream; the [engine.*] counters are
    flushed, and the store handle's counts folded
    ({!Dolx_core.Secure_store.fold_metrics}), once, at exhaustion (or
    at {!stream_close} for a stream abandoned early). *)

type stream

(** Stage a pattern into a stream with the given segment evaluator.
    [group] is how many of the last segment's candidate roots each
    refill hands to [eval] (bigger groups amortize a parallel fan-out at
    the cost of a larger reorder margin); [chunk] (default 256) bounds
    each {!stream_next} batch.  Answers do not depend on either.
    @raise Invalid_argument on [chunk < 1] or [group < 1]. *)
val stream_with :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> ?chunk:int ->
  eval:segment_eval -> group:int -> Store.t -> Dolx_index.Tag_index.t ->
  Pattern.t -> semantics -> stream

(** The sequential stream: {!stream_with} with {!eval_segment} and
    group 1. *)
val stream :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> ?chunk:int ->
  Store.t -> Dolx_index.Tag_index.t -> Pattern.t -> semantics -> stream

(** Next chunk of answers, document order, distinct, at most [chunk]
    long.  [[]] means exhausted; the stream is finalized and every later
    call returns [[]]. *)
val stream_next : stream -> int list

(** Finalize early: flush the partial statistics and drop the source.
    Idempotent; a later {!stream_next} returns [[]]. *)
val stream_close : stream -> unit

(** Drain to a list — equals [(run ...).answers] from the same inputs. *)
val stream_collect : stream -> int list

(** Drain to a {!result}: the answers plus the stream's statistics.
    {!run} is [drain (stream ...)]. *)
val drain : stream -> result

val stream_finished : stream -> bool
val stream_emitted : stream -> int

(** High-water mark of answers buffered at once (chunk in progress +
    reorder margin) — the bound asserted by [bench serve]. *)
val stream_peak_buffered : stream -> int

val stream_chunk_size : stream -> int
val stream_scanned : stream -> int
val stream_joins : stream -> int
val stream_segments : stream -> int
