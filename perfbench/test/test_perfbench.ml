(** Self-tests of the benchmark: seeded generation, exact percentiles,
    and tiny-scale runs of every workload that must pass verification
    and emit exactly the metrics BENCHMARK.json lists. *)

open Perfbench
module Json = Dolx_obs.Json
module Prng = Dolx_util.Prng
module Bitset = Dolx_util.Bitset
module Tree = Dolx_xml.Tree
module Labeling = Dolx_policy.Labeling
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

let inputs = lazy (Gen.inputs Gen.tiny)

let ops w seed = Gen.ops (Lazy.force inputs) w ~seed ~part:Gen.Main ~n:300

let test_seeded_ops () =
  List.iter
    (fun (name, w) ->
      check Alcotest.bool (name ^ ": same seed, same operations") true
        (ops w 7 = ops w 7);
      check Alcotest.bool (name ^ ": another seed, other operations") false
        (ops w 7 = ops w 8);
      let probe seed = Gen.probe (Lazy.force inputs) w ~seed ~pairs:4 in
      check Alcotest.bool (name ^ ": probe is seeded") true
        (probe 7 = probe 7 && probe 7 <> probe 8))
    Gen.workloads

(* A round of twigs is 16 hot subjects x 3 queries x 4 requests: every
   seed issues the same requests in it, in its own order. *)
let test_rounds () =
  let round seed = Gen.ops (Lazy.force inputs) Gen.Twigs ~seed ~part:Gen.Main ~n:192 in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  check Alcotest.bool "same requests" true (sorted (round 7) = sorted (round 8));
  check Alcotest.bool "other order" false (round 7 = round 8)

let test_local_median () =
  check
    Alcotest.(array (float 0.0))
    "window of 1 on either side" [| 1.; 4.; 2.; 3.; 2. |]
    (Calib.local [| 5.; 1.; 4.; 2.; 3. |] 1)

(* Every churn update pair is a flip and the update that undoes it. *)
let test_churn_pairs () =
  let updates =
    List.filter_map
      (function Gen.Update { subject; root; grant } -> Some (subject, root, grant) | Gen.Query _ -> None)
      (Array.to_list (ops Gen.Churn 3))
  in
  let rec pairs = function
    | (s, r, g) :: (s', r', g') :: rest ->
        check Alcotest.bool "restore undoes its flip" true (s = s' && r = r' && g = not g');
        pairs rest
    | _ -> ()
  in
  check Alcotest.bool "churn updates" true (List.length updates >= 30);
  pairs updates

let test_labeling_recipe () =
  let tree = Xmark.generate_nodes ~seed:3 1500 in
  let ours = Gen.labeling_of tree ~seed:11 ~subjects:48 in
  let lib =
    Synth_acl.generate_multi tree ~seed:11 ~n_subjects:48 ~n_archetypes:20
      ~perturb:0.05 ()
  in
  for v = 0 to Tree.size tree - 1 do
    if not (Bitset.equal (Labeling.acl ours v) (Labeling.acl lib v)) then
      Alcotest.failf "node %d: ACL differs from Synth_acl.generate_multi" v
  done

let test_percentiles () =
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> float_of_int (i + 1)) in
      Prng.shuffle (Prng.create n) a;
      List.iter
        (fun p ->
          let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0))) in
          check (Alcotest.float 0.0)
            (Printf.sprintf "p%g of 1..%d" p n)
            (float_of_int rank) (Pct.percentile a p))
        [ 0.0; 5.0; 25.0; 50.0; 90.0; 95.0; 99.0; 100.0 ])
    [ 513; 1000; 2049 ];
  check (Alcotest.float 0.0) "p50 of 1..1000" 500.0
    (Pct.median (Array.init 1000 (fun i -> float_of_int (1000 - i))));
  check (Alcotest.float 0.0) "p95 of 1..1000" 950.0
    (Pct.percentile (Array.init 1000 (fun i -> float_of_int (i + 1))) 95.0)

(* The metric names BENCHMARK.json lists under [key], in order. *)
let listed key =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let doc =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Json.parse (really_input_string ic (in_channel_length ic)))
  in
  match Json.member key doc with
  | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match Json.member "name" m with Some (Json.Str s) -> s | _ -> Alcotest.fail "unnamed metric")
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let sockets = ref 0

let tiny_run w ~trace =
  incr sockets;
  Bench.run
    {
      Bench.workload = w; seed = 5; seconds = 0.3; trace; scale = Gen.tiny;
      socket = Printf.sprintf "t%d-%d.sock" (Unix.getpid ()) !sockets;
    }

let test_run w ~trace () =
  if Bench.domains > Bench.nproc () then Alcotest.skip ();
  let o = tiny_run w ~trace in
  check Alcotest.bool "verified" true o.Bench.correct;
  check Alcotest.int "failed" 0 o.Bench.failed;
  check Alcotest.bool "attempted" true (o.Bench.attempted > 0);
  check
    Alcotest.(list string)
    "metric names"
    (listed (if trace then "per_layer" else "end_to_end"))
    (List.map (fun m -> m.Bench.name) o.Bench.metrics);
  List.iter
    (fun m ->
      if not (Float.is_finite m.Bench.value) then
        Alcotest.failf "%s is not finite" m.Bench.name)
    o.Bench.metrics

let () =
  Alcotest.run "perfbench"
    [
      ( "generation",
        [
          Alcotest.test_case "seeded operations" `Quick test_seeded_ops;
          Alcotest.test_case "balanced rounds" `Quick test_rounds;
          Alcotest.test_case "churn toggle pairs" `Quick test_churn_pairs;
          Alcotest.test_case "labeling recipe" `Quick test_labeling_recipe;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "exact nearest rank" `Quick test_percentiles;
          Alcotest.test_case "local host median" `Quick test_local_median;
        ] );
      ( "runs",
        List.concat_map
          (fun (name, w) ->
            [
              Alcotest.test_case (name ^ " verified") `Quick (test_run w ~trace:false);
              Alcotest.test_case (name ^ " traced") `Quick (test_run w ~trace:true);
            ])
          Gen.workloads );
    ]
