(** DataGuide class analysis of a twig pattern.

    Matches the pattern against the path summary at the class level:
    every pattern node gets the set of summary classes whose data nodes
    could possibly bind it.  The analysis is conservative (a superset):
    tag tests and axes are enforced exactly (the DataGuide property
    guarantees every data child/descendant/sibling edge has a summary
    counterpart), value tests are ignored, and predicate branches are
    checked structurally only.  A data node whose class is outside its
    pattern node's set therefore provably cannot participate in any
    match, so filtering candidates by class — and discarding whole
    classes with empty or inaccessible extents — preserves answers
    exactly.

    The sets are sparse: a pattern node's set is built from its tag's
    classes and walks up their summary parent chains, so the analysis
    costs what the tags' classes number, not the summary's size (a
    wildcard test starts from every class).  Each set keeps one byte per
    class beside its members, so membership is O(1) for the engine's
    ancestor filter, and {!drop_dead_spans} visits admitted classes
    only.

    Every data node of an admitted class lies inside the set's {!hull},
    the smallest preorder interval holding the admitted classes'
    extent spans, so the engine narrows a candidate walk to the hull
    before filtering by class: what it skips holds no admissible
    candidate.

    Key invariant used by the engine's summary-path plan: for a chain of
    child-axis pattern steps, a data node's class being admissible for
    the last step implies each ancestor's class is admissible for the
    corresponding earlier step (summary parents are unique). *)

module Ps = Dolx_index.Path_summary

type t

(** Analyze [pattern] (trunk and predicate branches) against the
    summary.  [table] resolves tag names to ids. *)
val analyze : table:Dolx_xml.Tag.table -> Ps.t -> Pattern.t -> t

(** Admissible classes of a pattern node, one byte per class: class [c]
    is admitted iff byte [c] is non-zero ({!mem}).  Live analysis state —
    {!drop_dead_spans} clears bytes in it, and callers must not mutate
    it. *)
val classes : t -> Pattern.pnode -> Bytes.t

(** [mem flags c] — is class [c] admitted by a {!classes} map?  O(1). *)
val mem : Bytes.t -> Ps.cls -> bool

(** Number of admissible classes of a pattern node. *)
val cardinal : t -> Pattern.pnode -> int

(** No admissible class — the pattern node (and so the whole query)
    cannot match. *)
val empty_for : t -> Pattern.pnode -> bool

(** [hull t p] — [(lo, hi)]: the least span start and the greatest span
    end over [p]'s admissible classes, an inclusive preorder interval
    holding every data node of those classes; [lo > hi] when none is
    admitted.  O(admitted classes). *)
val hull : t -> Pattern.pnode -> int * int

(** Drop admissible classes whose extent span is dead according to
    [dead] (e.g. no accessible preorder inside [lo, hi]); applied to
    every pattern node's set.  Returns the number of classes dropped.
    Sound for secure semantics: matches need accessible witnesses. *)
val drop_dead_spans : t -> dead:(lo:int -> hi:int -> bool) -> int

(** Classes discarded by the structural analysis itself, summed over
    pattern nodes (vs the tag-only baseline).  Feeds the
    [engine.summary_pruned] counter together with {!drop_dead_spans}. *)
val pruned_classes : t -> int
