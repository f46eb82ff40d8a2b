(** Metrics registry: named counters, gauges and log-scale histograms.

    Instruments are registered once (module-initialization time, by
    name) and then updated through the returned handle; every update is
    live — there is no on/off switch.

    Counters and gauges are [Atomic.t]-backed: increments from several
    domains (the {!Dolx_exec} pool, the [Serve] workers) are never lost.
    Histograms are single-writer (they back span tracing, which records
    only on the main domain).

    Storage and store counts (disk reads, pool touches, access checks,
    …) are plain fields of their owners ({!Dolx_storage.Disk.stats},
    {!Dolx_storage.Buffer_pool.stats}, [Secure_store.io_stats]);
    [Secure_store.fold_metrics] adds what they gained to the registry at
    query end, reader release and update-window end, so there the
    registry equals the sum of the records.  Reset the store, then the
    registry, and both start at zero. *)

type t

type counter

type gauge

type histogram

(** Samples kept verbatim per histogram; percentiles are exact while the
    sample count is below this, bucket-approximated beyond. *)
val reservoir_cap : int

val create : unit -> t

(** The process-wide registry all built-in instrumentation uses. *)
val default : t

(** {1 Counters} *)

(** Get or create (registry defaults to {!default}). *)
val counter : ?reg:t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val count : counter -> int

val counter_name : counter -> string

val find_counter : ?reg:t -> string -> counter option

(** Current value, 0 when never registered. *)
val counter_value : ?reg:t -> string -> int

(** {1 Gauges} *)

val gauge : ?reg:t -> string -> gauge

val gauge_set : gauge -> float -> unit

val gauge_add : gauge -> float -> unit

val gauge_value : gauge -> float

val gauge_name : gauge -> string

(** {1 Histograms}

    Log-scale: one bucket per power of two (exponents −32…31), plus a
    bucket for values ≤ 0.  Non-finite observations are counted as
    [dropped] and never mixed into the distribution. *)

val histogram : ?reg:t -> string -> histogram

val histogram_name : histogram -> string

val observe : histogram -> float -> unit

val observations : histogram -> int

(** [percentile h p], [p] in [0,100]; nearest-rank, exact
    ({!Dolx_util.Stats.percentile}) while all samples fit the reservoir,
    within the bucket's factor-of-two resolution beyond.  NaN when
    empty. *)
val percentile : histogram -> float -> float

type summary = {
  count : int;
  dropped : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summary : histogram -> summary

(** {1 Registry-wide} *)

(** Zero every instrument; registrations and handles survive. *)
val reset : t -> unit

(** [{"counters":{…},"gauges":{…},"histograms":{…}}] with
    keys sorted, histogram values summarized (count/sum/min/max/mean/
    p50/p95/p99). *)
val to_json : t -> Json.t

val to_json_string : t -> string

val pp : Format.formatter -> t -> unit
