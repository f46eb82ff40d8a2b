(** Bechamel micro-benchmarks of the core operations: DOL lookup, CAM
    lookup, codebook interning and verdicts, physical access check, the
    synthetic ACL + DOL construction path, a multi-subject DOL's build
    and serialization, the summary-path drain of Q4–Q6 under each
    semantics, and the segment plan's drain of Q4–Q6 under [Secure]. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Persist = Dolx_core.Persist
module Cam = Dolx_cam.Cam
module Store = Dolx_core.Secure_store
module Bitset = Dolx_util.Bitset
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Tag_index = Dolx_index.Tag_index
open Bechamel
open Toolkit

let tests () =
  let tree = Xmark.generate_nodes ~seed:91 20_000 in
  let n = Tree.size tree in
  let bools =
    Synth_acl.generate_bool tree ~params:Synth_acl.default (Prng.create 92)
  in
  let dol = Dol.of_bool_array bools in
  let cam = Cam.build tree bools in
  (* run index off: the micro-benchmark times the physical in-page
     check path *)
  let store = Store.create ~run_index:false ~path_summary:false ~page_size:4096 tree dol in
  (* warm the pool so the access-check benchmark measures the in-memory
     path, as in a steady-state query *)
  for v = 0 to n - 1 do
    Store.touch store v
  done;
  let rng = Prng.create 93 in
  let probe = Array.init 1024 (fun _ -> Prng.int rng n) in
  let idx = ref 0 in
  let next () =
    idx := (!idx + 1) land 1023;
    probe.(!idx)
  in
  let t_dol_lookup =
    Test.make ~name:"dol_lookup" (Staged.stage (fun () ->
        ignore (Dol.accessible dol ~subject:0 (next ()))))
  in
  let t_cam_lookup =
    Test.make ~name:"cam_lookup" (Staged.stage (fun () ->
        ignore (Cam.accessible cam (next ()))))
  in
  let t_store_check =
    Test.make ~name:"access_check_random" (Staged.stage (fun () ->
        ignore (Store.accessible store ~subject:0 (next ()))))
  in
  let seq = ref 0 in
  let t_store_check_seq =
    Test.make ~name:"access_check_sequential" (Staged.stage (fun () ->
        seq := (!seq + 1) mod n;
        ignore (Store.accessible store ~subject:0 !seq)))
  in
  let t_store_check_skip =
    Test.make ~name:"access_check_with_header_skip" (Staged.stage (fun () ->
        ignore (Store.accessible_with_skip store ~subject:0 (next ()))))
  in
  let width = 64 in
  let cb = Codebook.create ~width in
  let acls =
    Array.init 128 (fun i ->
        let b = Bitset.create width in
        for j = 0 to 7 do
          Bitset.set b ((i + (j * 11)) mod width) true
        done;
        b)
  in
  let t_codebook =
    Test.make ~name:"codebook_intern" (Staged.stage (fun () ->
        ignore (Codebook.intern cb acls.(next () land 127))))
  in
  let t_dol_build =
    Test.make ~name:"dol_of_bool_array_20k" (Staged.stage (fun () ->
        ignore (Dol.of_bool_array bools)))
  in
  let t_cam_build =
    Test.make ~name:"cam_build_20k" (Staged.stage (fun () -> ignore (Cam.build tree bools)))
  in
  (* 64 independent subjects: a codebook of thousands of 64-bit
     entries, where [dol_of_bool_array_20k] builds one of 2 *)
  let multi = Synth_acl.generate_multi tree ~seed:94 ~n_subjects:64 () in
  let multi_dol = Dol.of_labeling multi in
  let image = Persist.to_bytes multi_dol in
  let t_dol_build_multi =
    Test.make ~name:"dol_of_labeling_20k_x64" (Staged.stage (fun () ->
        ignore (Dol.of_labeling multi)))
  in
  (* the codebook step of the runs-off access check: a subject's verdict
     under the code governing a random node, on the 64-subject book *)
  let multi_cb = Dol.codebook multi_dol in
  let multi_codes = Array.map (Dol.code_at multi_dol) probe in
  let g = ref 0 in
  let t_codebook_grants =
    Test.make ~name:"codebook_grants" (Staged.stage (fun () ->
        g := (!g + 1) land 1023;
        ignore (Codebook.grants multi_cb multi_codes.(!g) (!g land 63))))
  in
  (* the codebook entries are most of the image *)
  let t_persist_encode =
    Test.make ~name:"persist_encode_20k_x64" (Staged.stage (fun () ->
        ignore (Persist.to_bytes multi_dol)))
  in
  let t_persist_decode =
    Test.make ~name:"persist_decode_20k_x64" (Staged.stage (fun () ->
        ignore (Persist.of_bytes image)))
  in
  (* Q4-Q6 drained in 64-answer chunks, as perfbench's [twigs] streams
     them, on a store with the run index and the path summary on: the
     summary-path loop's in-process cost, with no wire.  One op drains
     one query, cycling through the three for a subject that the first
     op's run build leaves cached. *)
  let twig_store = Store.create ~page_size:1024 ~pool_capacity:64 tree multi_dol in
  let twig_index = Tag_index.build tree in
  let twigs =
    Array.of_list
      (List.filter_map
         (fun (id, q) -> if List.mem id [ "Q4"; "Q5"; "Q6" ] then Some (Xpath.parse q) else None)
         Xmark.queries)
  in
  let drain st =
    let rec go () = match Engine.stream_next st with [] -> () | _ -> go () in
    go ()
  in
  let twig name semantics =
    let q = ref 0 in
    Test.make ~name:("summary_path_twigs_" ^ name) (Staged.stage (fun () ->
        q := (!q + 1) mod 3;
        drain (Engine.stream ~chunk:64 twig_store twig_index twigs.(!q) semantics)))
  in
  (* The same drains with the summary off and the run index on: the
     segment plan, whose seeds and joins draw their candidates through
     the run-gated walk.  Perfbench never runs this plan. *)
  let segment_store = Store.reader twig_store in
  Store.set_summary segment_store false;
  let t_segment_plan =
    let q = ref 0 in
    Test.make ~name:"segment_plan_twigs_secure" (Staged.stage (fun () ->
        q := (!q + 1) mod 3;
        drain (Engine.stream ~chunk:64 segment_store twig_index twigs.(!q) (Engine.Secure 0))))
  in
  [
    t_dol_lookup; t_cam_lookup; t_store_check; t_store_check_seq;
    t_store_check_skip; t_codebook; t_codebook_grants; t_dol_build; t_cam_build;
    t_dol_build_multi; t_persist_encode; t_persist_decode;
    twig "secure" (Engine.Secure 0); twig "secure_path" (Engine.Secure_path 0);
    twig "insecure" Engine.Insecure; t_segment_plan;
  ]

let benchmark () =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw =
    List.map
      (fun test -> Benchmark.all cfg instances test)
      (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (tests ()))
  in
  ignore raw

(* Simpler, dependency-light reporting: run each test via Bechamel and
   print ns/op from the OLS estimate. *)
let run () =
  Bench_common.header "Micro-benchmarks (Bechamel, ns/op)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-36s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        ols)
    (List.map (fun t -> Test.make_grouped ~name:"micro" [ t ]) (tests ()))
