(* perfbench --workload paths|twigs|churn --seed N --seconds S --trace 0|1

   Prints a human-readable report, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics untraced, the per-layer ones with --trace 1.  Exits 1 when an
   answer, a pin or a session check failed, 2 on bad usage or a
   configuration it refuses to run. *)

module Json = Dolx_obs.Json
open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME paths, twigs or churn");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 run the traced per-layer pass");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let workload =
    match List.assoc_opt !workload Gen.workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  (* the socket lives in the working directory: the benchmark writes
     nowhere else *)
  let socket = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
  let p =
    { Bench.workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
      scale = Gen.full;
      socket }
  in
  match Bench.run p with
  | exception Failure msg -> fail msg
  | o ->
      List.iter print_endline o.Bench.report;
      let metric m =
        (m.Bench.name, Json.Obj [ ("value", Json.Num m.Bench.value); ("unit", Json.Str m.Bench.units) ])
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool o.Bench.correct);
                ("attempted", Json.num_of_int o.Bench.attempted);
                ("failed", Json.num_of_int o.Bench.failed);
                ("metrics", Json.Obj (List.map metric o.Bench.metrics));
              ]));
      if not o.Bench.correct then exit 1
