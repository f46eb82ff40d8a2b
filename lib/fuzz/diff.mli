(** Differential driver: cross-checks the full DOL stack against
    {!Oracle} on generated cases, across a configuration lattice, and
    shrinks failures to minimal reproducible parameter sets.

    One case exercises, in order: policy compilation
    ([Propagate] + [Labeling.materialize_users] vs direct MSO), every
    access check ([Secure_store.accessible] / [accessible_with_skip],
    with the run index both as configured and toggled), query answers
    under all three semantics ([Engine.run] vs brute force, again on
    both run-index settings), the update trace ([Update] accessibility /
    structural / subject-set operations against the oracle matrix), and
    per-configuration extras: a [jobs]-wide executor batch, transient
    fault injection, and crash-recovery replay of accessibility updates
    through [Db_file.update_images] (every crash image must load to
    exactly the pre- or exactly the post-update matrix). *)

type config = {
  run_index : bool;  (** store-level run index setting (the opposite is
                         also probed inside every check) *)
  summary : bool;    (** DataGuide candidate-class pruning + the
                         summary-path plan in the engine *)
  jobs : int;        (** > 1 adds an executor-batch cross-check *)
  faults : bool;     (** transient-read fault injection on the disk *)
  recovery : bool;   (** accessibility updates go through journaled
                         crash-replay; every image is checked *)
}

(** Plain sequential configuration: run index on, no extras. *)
val base_config : config

(** The checked points of the lattice (run index on/off, summary
    on/off, jobs 1/4, faults, recovery) — used when
    replaying corpus seeds. *)
val lattice : config list

(** Deterministic per-case rotation through the lattice used by the
    driver and the bench. *)
val config_for_case : int -> config

val config_name : config -> string

type mismatch = {
  params : Gen.params;
  config : config;
  check : string;   (** which cross-check diverged, e.g. "query[1]" *)
  detail : string;
}

(** Human-readable report: check, configuration, repro line, detail. *)
val describe : mismatch -> string

(** Run one case under one configuration.  [None] means every
    cross-check agreed with the oracle.  Unexpected exceptions are
    reported as mismatches; an escaped transient-read fault under
    [faults] is treated as a benign skip. *)
val check_params : config -> Gen.params -> mismatch option

(** {!check_params} across the whole {!lattice}; first divergence wins. *)
val check_all : Gen.params -> mismatch option

(** Greedy shrink under the mismatch's configuration: repeatedly halve /
    decrement the tree budget, drop rules, truncate the trace and drop
    queries while the case still fails.  Returns the smallest failing
    parameters found and the number of re-checks spent. *)
val shrink : config -> Gen.params -> Gen.params * int

(** {1 Repro lines and corpus}

    A repro line is a self-contained seed line like
    ["DOLX-FUZZ v1 seed=71 nodes=18 users=2 groups=0 rules=3 queries=1 trace=2"].
    Corpus files under [test/corpus/] hold one repro line per failure
    (plus [#] comments) and are replayed by the test-suite. *)

val repro_line : Gen.params -> string

(** [None] when the line is not a repro line (comments, blanks). *)
val parse_repro : string -> Gen.params option

(** Replay every repro line of a corpus file across the lattice;
    returns the failures as [(line_number, report)] pairs. *)
val replay_file : string -> (int * string) list

(** Write a corpus file for a shrunk failure; returns its path. *)
val write_corpus : dir:string -> mismatch -> string
