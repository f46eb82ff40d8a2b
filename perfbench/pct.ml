(** Exact nearest-rank percentiles over raw per-request samples.  The
    benchmark never reads a [Metrics.histogram] percentile: beyond its
    reservoir those are log-bucket midpoints, which quantize latency. *)

(** A sorted copy of the samples. *)
let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(** [at s p], [s] sorted ascending and non-empty, [p] in [0, 100]: the
    smallest sample with at least [p]% of the samples at or below it. *)
let at s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Pct.at: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let percentile samples p = at (sorted samples) p

let median samples = percentile samples 50.0
