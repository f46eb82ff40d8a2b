(** A dependency-free metrics registry: named counters, gauges and
    log-scale histograms.

    The paper's headline result — ε-NoK secure evaluation costs ≈2% over
    insecure evaluation (§5.2) — is a claim about {e counters}: page
    touches, buffer hits, disk I/Os, access checks.  This registry is the
    one place the process-wide totals live, so the CLI, the bench harness
    and the tests all read the same numbers.

    The storage and store hot paths do not write here.  They bump plain
    [int] fields on the handle that owns the event (a disk, a buffer
    pool, a store handle), and the store folds what those fields gained
    into this registry at query and update boundaries
    ([Secure_store.fold_metrics]).  What is written here directly runs
    at query, request or update rate: engine totals, plan choices,
    serve/wire/commit events, span histograms.

    Concurrency: counters and gauges are [Atomic.t]-backed, so the same
    named cell can be bumped from several domains (the [Serve]
    workers) without losing increments.
    Histograms remain single-writer: they back span tracing, which only
    records on the main domain.

    Histograms are log-scale (one bucket per power of two, exponents
    −32…31) with an exact reservoir for the first {!reservoir_cap}
    samples: while the reservoir holds every sample, percentiles are the
    exact {!Dolx_util.Stats.percentile} nearest-rank answer; after that
    they fall back to a bucket walk whose answer is within the bucket's
    factor-of-two resolution. *)

module Stats = Dolx_util.Stats

let reservoir_cap = 512

let n_buckets = 64

(* exponent −32 maps to bucket 0 *)
let exp_bias = 32

type counter = { c_name : string; count : int Atomic.t }

type gauge = { g_name : string; value : float Atomic.t }

type histogram = {
  h_name : string;
  buckets : int array; (* counts per power-of-two bucket *)
  mutable zeros : int; (* samples <= 0 *)
  mutable h_count : int;
  mutable dropped : int; (* non-finite observations, never mixed in *)
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  reservoir : float array;
  mutable exact : bool; (* reservoir still holds every sample *)
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

(** The process-wide registry every instrumented module registers in. *)
let default = create ()

(** {1 Counters} *)

let counter ?(reg = default) name =
  match Hashtbl.find_opt reg.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; count = Atomic.make 0 } in
      Hashtbl.add reg.counters name c;
      c

let incr c = Atomic.incr c.count

let add c n = ignore (Atomic.fetch_and_add c.count n)

let count c = Atomic.get c.count

let counter_name c = c.c_name

let find_counter ?(reg = default) name = Hashtbl.find_opt reg.counters name

(** Current value of counter [name], 0 when it was never registered. *)
let counter_value ?(reg = default) name =
  match Hashtbl.find_opt reg.counters name with
  | Some c -> Atomic.get c.count
  | None -> 0

(** {1 Gauges} *)

let gauge ?(reg = default) name =
  match Hashtbl.find_opt reg.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; value = Atomic.make 0.0 } in
      Hashtbl.add reg.gauges name g;
      g

let gauge_set g v = Atomic.set g.value v

(* CAS loop: adds from concurrent domains must not be lost *)
let rec gauge_add g v =
  let old = Atomic.get g.value in
  if not (Atomic.compare_and_set g.value old (old +. v)) then gauge_add g v

let gauge_value g = Atomic.get g.value

(** {1 Histograms} *)

let histogram ?(reg = default) name =
  match Hashtbl.find_opt reg.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          buckets = Array.make n_buckets 0;
          zeros = 0;
          h_count = 0;
          dropped = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          reservoir = Array.make reservoir_cap 0.0;
          exact = true;
        }
      in
      Hashtbl.add reg.histograms name h;
      h

(* Bucket index for a strictly positive finite value: floor(log2 v)
   clamped to the covered exponent range. *)
let bucket_of v =
  let e = int_of_float (Float.floor (Float.log2 v)) in
  let e = if e < -exp_bias then -exp_bias else if e > 31 then 31 else e in
  e + exp_bias

(* Geometric midpoint of bucket [i]'s range [2^e, 2^(e+1)). *)
let representative i = 1.5 *. Float.pow 2.0 (float_of_int (i - exp_bias))

let observe h v =
  if not (Float.is_finite v) then h.dropped <- h.dropped + 1
  else begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    if h.exact then begin
      if h.h_count <= reservoir_cap then h.reservoir.(h.h_count - 1) <- v
      else h.exact <- false
    end;
    if v <= 0.0 then h.zeros <- h.zeros + 1
    else h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1
  end

let observations h = h.h_count

(** [percentile h p], [p] in [0,100].  Exact ({!Dolx_util.Stats}
    nearest-rank) while every sample is still in the reservoir; the
    log-bucket approximation (answer within its bucket's factor of two)
    beyond that.  NaN when the histogram is empty. *)
let percentile h p =
  if h.h_count = 0 then nan
  else if h.exact then
    Stats.percentile p (Array.to_list (Array.sub h.reservoir 0 h.h_count))
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      max 1 (min h.h_count r)
    in
    if rank <= h.zeros then 0.0
    else begin
      let seen = ref h.zeros in
      let result = ref h.h_max in
      (try
         for i = 0 to n_buckets - 1 do
           seen := !seen + h.buckets.(i);
           if !seen >= rank then begin
             result := representative i;
             raise Exit
           end
         done
       with Exit -> ());
      (* never report beyond the observed extremes *)
      Float.min h.h_max (Float.max h.h_min !result)
    end
  end

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

let summary h =
  {
    count = h.h_count;
    dropped = h.dropped;
    sum = h.h_sum;
    mean = (if h.h_count = 0 then nan else h.h_sum /. float_of_int h.h_count);
    min = (if h.h_count = 0 then nan else h.h_min);
    max = (if h.h_count = 0 then nan else h.h_max);
    p50 = percentile h 50.0;
    p95 = percentile h 95.0;
    p99 = percentile h 99.0;
  }

(** {1 Registry-wide operations} *)

(** Zero every instrument; registrations (and handles held by the
    instrumented modules) survive. *)
let reset t =
  Hashtbl.iter (fun _ (c : counter) -> Atomic.set c.count 0) t.counters;
  Hashtbl.iter (fun _ g -> Atomic.set g.value 0.0) t.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 n_buckets 0;
      h.zeros <- 0;
      h.h_count <- 0;
      h.dropped <- 0;
      h.h_sum <- 0.0;
      h.h_min <- infinity;
      h.h_max <- neg_infinity;
      h.exact <- true)
    t.histograms

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** {1 Export} *)

let to_json t =
  let counters =
    List.map
      (fun (k, (c : counter)) -> (k, Json.num_of_int (Atomic.get c.count)))
      (sorted_bindings t.counters)
  in
  let gauges =
    List.map
      (fun (k, g) -> (k, Json.Num (Atomic.get g.value)))
      (sorted_bindings t.gauges)
  in
  let histograms =
    List.map
      (fun (k, h) ->
        let s = summary h in
        ( k,
          Json.Obj
            [
              ("count", Json.num_of_int s.count);
              ("dropped", Json.num_of_int s.dropped);
              ("sum", Json.Num s.sum);
              ("mean", Json.Num s.mean);
              ("min", Json.Num s.min);
              ("max", Json.Num s.max);
              ("p50", Json.Num s.p50);
              ("p95", Json.Num s.p95);
              ("p99", Json.Num s.p99);
            ] ))
      (sorted_bindings t.histograms)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let to_json_string t = Json.to_string (to_json t)

let pp ppf t =
  let fnum x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.3f" x
  in
  Format.fprintf ppf "counters:@.";
  List.iter
    (fun (k, (c : counter)) ->
      Format.fprintf ppf "  %-34s %d@." k (Atomic.get c.count))
    (sorted_bindings t.counters);
  (match sorted_bindings t.gauges with
  | [] -> ()
  | gauges ->
      Format.fprintf ppf "gauges:@.";
      List.iter
        (fun (k, g) ->
          Format.fprintf ppf "  %-34s %s@." k (fnum (Atomic.get g.value)))
        gauges);
  match sorted_bindings t.histograms with
  | [] -> ()
  | hs ->
      Format.fprintf ppf "histograms:@.";
      List.iter
        (fun (k, h) ->
          let s = summary h in
          if s.count = 0 then Format.fprintf ppf "  %-34s (empty)@." k
          else
            Format.fprintf ppf
              "  %-34s n=%d sum=%s min=%s p50=%s p95=%s p99=%s max=%s@." k
              s.count (fnum s.sum) (fnum s.min) (fnum s.p50) (fnum s.p95)
              (fnum s.p99) (fnum s.max))
        hs
