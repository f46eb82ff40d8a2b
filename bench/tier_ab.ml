(** On/off A/B harness for the store's query-path tiers (the access-run
    index, the path summary): per-query cost with one tier on vs off,
    over XMark instances at a few policy densities and three subjects.

    The two sides are interleaved (off, on, off, on, …) within each
    configuration so drift hits both equally, and the reported figure
    is the per-configuration median over the repetitions.  Two costs
    are reported per side:

    - wall: measured wall-clock seconds;
    - modeled: wall + the disk model's simulated stall time, i.e. the
      cost under the repo's paper-style I/O accounting (the simulated
      charge is never slept, so it must be added back to see what
      elided page reads are worth).

    Only the tier's handle toggle differs between the sides; every other
    tier stays at its default.  Answers are checked byte-identical on vs
    off for every configuration, and for one batch per density on a
    4-worker [Serve] against the sequential off-side baseline.  Each tier
    adds its own integer columns per side (page touches, candidates
    scanned, …) and its own summary fields to the
    BENCH_<name>.json artifact. *)

module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Serve = Dolx_serve.Serve
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Json = Dolx_obs.Json
open Bench_common

let page_size = 512

let pool_capacity = 8

let n_subjects = 3

(* Policy densities: the denser the policy, the more transitions the DOL
   carries and the larger the inaccessible regions a subject must be
   filtered against. *)
let sparse =
  ( "sparse",
    { Synth_acl.propagation_ratio = 0.02;
      accessibility_ratio = 0.9;
      sibling_copy_p = 0.5 } )

let medium = ("medium", Synth_acl.default)

let dense =
  ( "dense",
    { Synth_acl.propagation_ratio = 0.30;
      accessibility_ratio = 0.35;
      sibling_copy_p = 0.3 } )

type tier = {
  name : string;  (** bench kind; the artifact is BENCH_<name>.json *)
  nodes : int;
  repetitions : int;
  toggle : Store.t -> bool -> unit;
  extra : on:bool -> Store.t -> Engine.result -> (string * int) list;
      (** One side's extra columns.  Applied to the store just before the
          timed run; the closure it returns gets the run's result. *)
}

type point = {
  density : string;
  subject : int;
  qid : string;
  wall_off : float;
  wall_on : float;
  modeled_off : float;
  modeled_on : float;
  columns : (string * int) list;  (** off side's, then on side's; last rep *)
  identical : bool;
}

let speedup p = p.modeled_off /. Float.max p.modeled_on 1e-9

let wall_speedup p = p.wall_off /. Float.max p.wall_on 1e-9

let column p key = List.assoc key p.columns

let make_store ~nodes params seed =
  let tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi tree ~params ~seed:(seed + 1) ~n_subjects ()
  in
  let dol = Dol.of_labeling labeling in
  let disk = Disk.create ~page_size () in
  let layout =
    Nok_layout.build disk tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
  in
  let store = Store.assemble ~pool_capacity ~tree ~dol ~disk ~layout () in
  (store, Tag_index.build tree)

(* One measured evaluation of one side: returns (answers, wall, modeled,
   the side's columns). *)
let measured tier ~on store index pat sem =
  tier.toggle store on;
  Store.reset_stats store;
  Disk.reset_stats (Store.disk store);
  let columns = tier.extra ~on store in
  let t0 = Unix.gettimeofday () in
  let r = Engine.run store index pat sem in
  let wall = Unix.gettimeofday () -. t0 in
  let modeled = wall +. (Disk.simulated_us (Store.disk store) /. 1e6) in
  (r.Engine.answers, wall, modeled, columns r)

let bench_config tier store index ~density ~subject (qid, xpath) =
  let pat = Xpath.parse xpath in
  let sem = Engine.Secure subject in
  (* warm both sides off the clock *)
  List.iter
    (fun on ->
      tier.toggle store on;
      ignore (Engine.run store index pat sem))
    [ false; true ];
  let reps = tier.repetitions in
  let w_off = Array.make reps 0.0
  and w_on = Array.make reps 0.0
  and m_off = Array.make reps 0.0
  and m_on = Array.make reps 0.0 in
  let identical = ref true and columns = ref [] in
  for i = 0 to reps - 1 do
    let a_off, wall, modeled, c_off = measured tier ~on:false store index pat sem in
    w_off.(i) <- wall;
    m_off.(i) <- modeled;
    let a_on, wall, modeled, c_on = measured tier ~on:true store index pat sem in
    w_on.(i) <- wall;
    m_on.(i) <- modeled;
    columns := c_off @ c_on;
    if a_on <> a_off then identical := false
  done;
  {
    density;
    subject;
    qid;
    wall_off = median w_off;
    wall_on = median w_on;
    modeled_off = median m_off;
    modeled_on = median m_on;
    columns = !columns;
    identical = !identical;
  }

(* Batch determinism: the full query set for every subject, sequential
   tier-off baseline vs a 4-worker service with the tier on. *)
let batch_identical tier store index =
  let batch =
    List.concat_map
      (fun s ->
        List.map (fun (_, q) -> (Xpath.parse q, Engine.Secure s)) Xmark.queries)
      (List.init n_subjects Fun.id)
  in
  tier.toggle store false;
  let baseline =
    List.map (fun (p, sem) -> (Engine.run store index p sem).Engine.answers) batch
  in
  tier.toggle store true;
  let answers =
    Serve.with_service ~jobs:4 (fun srv ->
        Serve.add_tenant srv "batch" (Serve.Mem (store, index));
        Serve.run_batch srv ~tenant:"batch" batch)
  in
  baseline = answers

(** Measure every (subject, Table-1 query) pair on one store per
    density, printing the per-point table.  [on_store] sees each store
    before its points are measured.  Returns the points in order and
    whether every 4-worker batch matched its baseline. *)
let measure tier ?(on_store = fun _ _ -> ()) densities =
  Printf.printf
    "%d nodes, %d subjects, %dB pages, %d-frame pool, %d reps (interleaved \
     medians)\n%!"
    tier.nodes n_subjects page_size pool_capacity tier.repetitions;
  let points = ref [] and batches_ok = ref true in
  List.iter
    (fun (density, params) ->
      let store, index = make_store ~nodes:tier.nodes params 131 in
      on_store density store;
      List.iter
        (fun subject ->
          List.iter
            (fun q -> points := bench_config tier store index ~density ~subject q :: !points)
            Xmark.queries)
        (List.init n_subjects Fun.id);
      if not (batch_identical tier store index) then batches_ok := false)
    densities;
  let points = List.rev !points in
  let keys = match points with [] -> [] | p :: _ -> List.map fst p.columns in
  table
    (([ "density"; "subj"; "query"; "off ms"; "on ms"; "speedup" ] @ keys @ [ "answers" ])
    :: List.map
         (fun p ->
           [
             p.density;
             string_of_int p.subject;
             p.qid;
             fmt_f (p.modeled_off *. 1e3);
             fmt_f (p.modeled_on *. 1e3);
             Printf.sprintf "%.2fx" (speedup p);
           ]
           @ List.map (fun (_, v) -> string_of_int v) p.columns
           @ [ (if p.identical then "=" else "DIVERGED") ])
         points);
  Printf.printf "answers byte-identical on vs off: %s\n%!"
    (if List.for_all (fun p -> p.identical) points then "yes" else "NO");
  Printf.printf "batch on 4 domains = sequential off baseline: %s\n%!"
    (if !batches_ok then "yes" else "NO");
  (points, !batches_ok)

(** Write BENCH_<name>.json: the run's configuration, the verdicts,
    the tier's own [fields], then every point.  Returns whether the
    answers were identical everywhere. *)
let write tier ~fields (points, batches_ok) =
  let identical = List.for_all (fun p -> p.identical) points in
  let doc =
    Json.Obj
      ([
         ("bench", Json.Str tier.name);
         ("nodes", Json.num_of_int tier.nodes);
         ("subjects", Json.num_of_int n_subjects);
         ("page_size", Json.num_of_int page_size);
         ("pool_capacity", Json.num_of_int pool_capacity);
         ("repetitions", Json.num_of_int tier.repetitions);
         ("identical", Json.Bool identical);
         ("batch_identical", Json.Bool batches_ok);
       ]
      @ fields
      @ [
          ( "points",
            Json.Arr
              (List.map
                 (fun p ->
                   Json.Obj
                     ([
                        ("density", Json.Str p.density);
                        ("subject", Json.num_of_int p.subject);
                        ("query", Json.Str p.qid);
                        ("wall_off_s", Json.Num p.wall_off);
                        ("wall_on_s", Json.Num p.wall_on);
                        ("modeled_off_s", Json.Num p.modeled_off);
                        ("modeled_on_s", Json.Num p.modeled_on);
                        ("speedup", Json.Num (speedup p));
                      ]
                     @ List.map (fun (k, v) -> (k, Json.num_of_int v)) p.columns
                     @ [ ("identical", Json.Bool p.identical) ]))
                 points) );
        ])
  in
  let path = Printf.sprintf "BENCH_%s.json" tier.name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path;
  identical && batches_ok
