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

    Key invariant used by the engine's summary-path plan: for a chain of
    child-axis pattern steps, a data node's class being admissible for
    the last step implies each ancestor's class is admissible for the
    corresponding earlier step (summary parents are unique). *)

module Ps = Dolx_index.Path_summary

type t

(** Analyze [pattern] (trunk and predicate branches) against the
    summary.  [table] resolves tag names to ids. *)
val analyze : table:Dolx_xml.Tag.table -> Ps.t -> Pattern.t -> t

(** Admissible classes of a pattern node, as a per-class membership
    array (length {!Ps.node_count}).  The array is live analysis state —
    callers must not mutate it. *)
val classes : t -> Pattern.pnode -> bool array

(** No admissible class — the pattern node (and so the whole query)
    cannot match. *)
val empty_for : t -> Pattern.pnode -> bool

(** Drop admissible classes whose extent span is dead according to
    [dead] (e.g. no accessible preorder inside [lo, hi]); applied to
    every pattern node's set.  Returns the number of classes dropped.
    Sound for secure semantics: matches need accessible witnesses. *)
val drop_dead_spans : t -> dead:(lo:int -> hi:int -> bool) -> int

(** Classes discarded by the structural analysis itself, summed over
    pattern nodes (vs the tag-only baseline).  Feeds the
    [engine.summary_pruned] counter together with {!drop_dead_spans}. *)
val pruned_classes : t -> int
