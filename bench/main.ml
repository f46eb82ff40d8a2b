(** Experiment harness: regenerates every table and figure of the
    paper's evaluation section (see DESIGN.md for the index).

    Usage:
      dune exec bench/main.exe            # all experiments
      dune exec bench/main.exe -- fig4a   # one experiment
    Experiments: fig4a fig4b fig5 fig6 storage queries fig7 joins updates micro robustness obs parallel mvcc runs summary serve wire fuzz
    Set DOLX_BENCH_SCALE=k to scale dataset sizes by k. *)

let queries_table () =
  Bench_common.header "Table 1: benchmark queries";
  Bench_common.table
    ([ "id"; "query" ]
    :: List.map (fun (n, q) -> [ n; q ]) Dolx_workload.Xmark.queries)

let experiments =
  [
    ("fig4a", Fig4.run_a);
    ("fig4b", Fig4.run_b);
    ("fig5", Fig5_6.run);
    ("fig6", Fig5_6.run);
    ("storage", Storage_cost.run);
    ("queries", queries_table);
    ("fig7", Fig7.run);
    ("joins", Fig7.run_joins);
    ("updates", Updates_bench.run);
    ("ablation", Ablation.run);
    ("micro", Micro.run);
    ("robustness", Robustness.run);
    ("obs", Obs_bench.run);
    ("parallel", Parallel_bench.run);
    ("mvcc", Mvcc_bench.run);
    ("runs", Runs_bench.run);
    ("summary", Summary_bench.run);
    ("serve", Serve_bench.run);
    ("wire", Wire_bench.run);
    ("fuzz", Fuzz_bench.run);
  ]

let run_all () =
  queries_table ();
  Fig4.run ();
  Fig5_6.run ();
  Storage_cost.run ();
  Fig7.run ();
  Fig7.run_joins ();
  Updates_bench.run ();
  Ablation.run ();
  Micro.run ();
  Robustness.run ();
  Obs_bench.run ();
  Parallel_bench.run ();
  Mvcc_bench.run ();
  Runs_bench.run ();
  Summary_bench.run ();
  Serve_bench.run ();
  Wire_bench.run ();
  Fuzz_bench.run ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> run_all ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
        names
