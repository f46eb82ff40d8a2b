(** Span-based tracing with monotonic timing and nesting.

    [with_span "nok.match" f] times [f] and records a span; spans opened
    while another is running nest (the collector tracks the current
    depth), so a finished trace renders as a tree of the evaluator's
    phases — index seeding, per-segment ε-NoK matching, structural
    joins — with per-phase wall time.

    Tracing is {e off} by default: a disabled collector reduces
    [with_span] to one branch and a closure call, which is what lets the
    instrumentation live permanently in the engine.  When enabled, every
    finished span is also observed (in microseconds) into the
    [span.<name>] histogram of the collector's metrics registry, so
    p50/p95/p99 per phase come for free.

    The clock is pluggable ({!set_clock}) because the library must stay
    dependency-free: the default is [Sys.time] (monotone per-process CPU
    seconds); the CLI and the bench harness install
    [Unix.gettimeofday].  Tests install a deterministic counter clock,
    which is how span timing is asserted exactly. *)

type span = {
  name : string;
  depth : int; (* nesting depth at the time the span opened *)
  seq : int; (* start order — children have larger seq than parents *)
  start : float; (* clock seconds relative to the collector's epoch *)
  dur : float; (* clock seconds *)
}

type t = {
  mutable on : bool;
  mutable clock : unit -> float;
  mutable epoch : float;
  mutable depth : int;
  mutable next_seq : int;
  mutable spans : span list; (* finished spans, most recent first *)
  mutable n_spans : int;
  cap : int;
  metrics : Metrics.t;
}

let create ?(enabled = false) ?(cap = 4096) ?(metrics = Metrics.default) () =
  {
    on = enabled;
    clock = Sys.time;
    epoch = 0.0;
    depth = 0;
    next_seq = 0;
    spans = [];
    n_spans = 0;
    cap;
    metrics;
  }

(** The collector the built-in instrumentation records into. *)
let default = create ()

let enabled t = t.on

let set_enabled ?(c = default) b =
  if b && not c.on then c.epoch <- c.clock ();
  c.on <- b

let set_clock ?(c = default) clock =
  c.clock <- clock;
  c.epoch <- clock ()

(** Drop recorded spans and restart the epoch; the enabled flag is
    unchanged. *)
let reset ?(c = default) () =
  c.spans <- [];
  c.n_spans <- 0;
  c.depth <- 0;
  c.next_seq <- 0;
  c.epoch <- c.clock ()

let record c span =
  if c.n_spans < c.cap then begin
    c.spans <- span :: c.spans;
    c.n_spans <- c.n_spans + 1
  end;
  (* aggregate even when the span list is full *)
  Metrics.observe
    (Metrics.histogram ~reg:c.metrics ("span." ^ span.name))
    (span.dur *. 1e6)

let with_span ?(c = default) name f =
  (* The collector's nesting state is single-writer: spans are recorded
     only on the main domain, so engine code running on a [Serve]
     worker domain passes through untimed instead of racing on
     [depth]/[spans].  Parallel runs are profiled by the per-reader
     counters, not by spans. *)
  if not (c.on && Domain.is_main_domain ()) then f ()
  else begin
    let depth = c.depth in
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    c.depth <- depth + 1;
    let t0 = c.clock () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = c.clock () in
        c.depth <- depth;
        record c
          {
            name;
            depth;
            seq;
            start = t0 -. c.epoch;
            dur = Float.max 0.0 (t1 -. t0);
          })
      f
  end

(** Finished spans in start (seq) order. *)
let spans c =
  List.sort (fun a b -> compare a.seq b.seq) c.spans

let span_count c = c.n_spans

let to_json ?(c = default) () =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("name", Json.Str s.name);
             ("depth", Json.num_of_int s.depth);
             ("seq", Json.num_of_int s.seq);
             ("start_us", Json.Num (s.start *. 1e6));
             ("dur_us", Json.Num (s.dur *. 1e6));
           ])
       (spans c))

let pp ?(c = default) ppf () =
  List.iter
    (fun (s : span) ->
      Format.fprintf ppf "%s%s %.1fus@."
        (String.make (2 * s.depth) ' ')
        s.name (s.dur *. 1e6))
    (spans c)
