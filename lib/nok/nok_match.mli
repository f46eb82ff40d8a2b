(** NoK pattern matching against the secured store: the visit/check
    primitives of ε-NoK, the run-gated candidate walk every plan shares,
    and a verbatim port of the paper's Algorithm 1.

    Every node visited costs a page touch; in secure modes the node's
    accessibility is checked "immediately after it is loaded (by
    FIRST-CHILD or FOLLOWING-SIBLING)" (§4.1), after the §3.3 page-header
    check that skips loading a provably fully inaccessible page, and
    inaccessible nodes are skipped with their subtrees — the
    binding-elimination semantics of Cho et al. for next-of-kin
    patterns. *)

module Store = Dolx_core.Secure_store

(** Evaluation mode.  [subject = None] disables access control;
    [path_semantics] switches descendant steps (including those inside
    predicates) to the Gabillon–Bruno semantics, where every node on the
    connecting path must be accessible. *)
type mode = { subject : int option; path_semantics : bool }

val insecure : mode

val secure : ?path_semantics:bool -> int -> mode

val subject_of : mode -> int option

(** Visit node [v]: fetch its page (accounted I/O, or header-skip) and
    check access.  [true] when evaluation may bind or traverse [v]. *)
val visit : Store.t -> mode -> Dolx_xml.Tree.node -> bool

(** Under path semantics: all nodes strictly between [ctx] and its
    descendant [u] accessible?  Apply it to [store mode] once and reuse
    the result per pair: the mode's check is built at that partial
    application. *)
val path_clear : Store.t -> mode -> ctx:Dolx_xml.Tree.node -> Dolx_xml.Tree.node -> bool

(** Does [v] pass the pattern node's tag test? *)
val test_ok : Store.t -> Pattern.test -> Dolx_xml.Tree.node -> bool

(** Does [v] pass the text-equality constraint? *)
val value_ok : Store.t -> string option -> Dolx_xml.Tree.node -> bool

(** The postings of the node's test: the value slice when it also
    constrains the text and a value index is given, else the tag slice;
    every preorder for a wildcard. *)
val postings :
  ?value_index:Dolx_index.Value_index.t -> Store.t -> Dolx_index.Tag_index.t ->
  Pattern.pnode -> Dolx_index.Postings.t

(** {1 The gated candidate walk}

    The one run-gated walk over a step's candidates, shared by every
    plan: the segment plan's seeds and joins, the summary-path loop and
    descendant predicates.  Algorithm 1 checks access once per visited
    node; a walk under secure semantics with the run index on skips a
    whole denied run instead.  It keeps the run segment
    ({!Store.locate}) of the last candidate it located: a candidate
    inside it is decided by two compares, and a denied one is left with
    one galloping seek to its end.  The class filter comes first, so the
    runs are consulted for admissible candidates only.  Under
    [Insecure], or with the run index off, nothing is gated.  Pruning is
    safe under both secure semantics: a skipped candidate would fail its
    own {!visit}. *)

(** Deliberate fault site for the differential fuzzer's self-test: when
    armed, every gated walk silently drops node 2, so secure answers
    lose it while the runs-off path keeps it.  Armed at startup by
    [DOLX_FUZZ_PLANT_BUG=prune]; tests may toggle the ref directly.
    Never set on production paths. *)
val planted_bug : bool ref

(** A walk's state: closure-free, so pulling a candidate allocates
    nothing. *)
type walk = {
  w_postings : Dolx_index.Postings.t;  (** the candidates ... *)
  w_nodes : int array;  (** ... at positions [\[w_first, w_stop)] of this array,
                            or, for a span, the positions themselves ([[||]]) *)
  w_first : int;
  mutable w_i : int;  (** the next position to consider *)
  w_stop : int;
  w_filter : (int array * Bytes.t) option;
      (** the class map and the step's admissible classes
          ({!Summary_prune.classes}) *)
  w_store : Store.t;
  w_subject : int;  (** the gate's subject; [-1] when ungated *)
  w_gate : Store.segment;  (** the last located candidate's run segment *)
  w_seg : Store.segment;
      (** a second segment for the walk's owner (the summary-path loop
          locates earlier steps' nodes in it) *)
  w_drop2 : bool;  (** the armed [prune] canary, on a gated walk *)
  mutable w_pruned : int;
      (** admissible candidates skipped in denied runs, for the owner to
          collect *)
}

(** [walk ?classes store mode postings] — a walk over [postings],
    filtered by [classes] against [store]'s path summary when given, and
    gated by [mode]'s subject when [store] has the run index on.
    Nothing is walked until {!next} is called. *)
val walk : ?classes:Bytes.t -> Store.t -> mode -> Dolx_index.Postings.t -> walk

(** The next admitted candidate, or [-1] once the walk is exhausted (and
    on every later call).  Allocates nothing. *)
val next : walk -> int

(** Existential match of pattern node [p] (with its axis) in the context
    of data node [ctx] — the predicate-evaluation primitive. *)
val exists_match : Store.t -> Dolx_index.Tag_index.t -> mode -> Pattern.pnode ->
  Dolx_xml.Tree.node -> bool

(** Full qualification of a candidate binding: visit/test/value plus all
    [preds] existentially.  Apply it to the pattern node once per step
    and reuse the result per candidate: the tag is resolved at that
    partial application. *)
val qualifies :
  Store.t -> Dolx_index.Tag_index.t -> mode -> Pattern.pnode ->
  preds:Pattern.pnode list -> Dolx_xml.Tree.node -> bool

(** {1 Algorithm 1, verbatim}

    A faithful port of the paper's ε-NoK "NPM(proot, sroot, R)" for
    child-only patterns with unordered children — the executable
    specification the test-suite checks the engine against. *)

(** [npm store mode proot sroot r]: match [proot]'s pattern subtree at
    [sroot], appending returning-node witnesses to [r] (reset on
    failure, as in the paper's lines 14–16).  Pre-condition: [sroot] is
    accessible and matches [proot]'s test. *)
val npm : Store.t -> mode -> Pattern.pnode -> Dolx_xml.Tree.node ->
  Dolx_xml.Tree.node list ref -> bool

(** Run Algorithm 1 from a candidate root, with the pre-condition check;
    [Some witnesses] on a match. *)
val npm_run :
  Store.t -> mode -> Pattern.t -> Dolx_xml.Tree.node ->
  Dolx_xml.Tree.node list option
