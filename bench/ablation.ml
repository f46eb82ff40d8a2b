(** Ablations of the design choices DESIGN.md calls out:

    1. dictionary compression (codebook) vs storing full ACLs at each
       transition (§2.1's motivation for the codebook);
    2. page size: I/O and time for Fig-7-style queries (the paper fixes
       4 KB pages);
    3. page fill factor vs update-induced page splits (§3.4 locality);
    4. ε-STD: stack-cached vs per-pair path checking (the [18] variant);
    5. multi-mode DOL vs one DOL per action mode (§2.1 footnote). *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Multimode = Dolx_core.Multimode
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Bitset = Dolx_util.Bitset
module Prng = Dolx_util.Prng
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Buffer_pool = Dolx_storage.Buffer_pool
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Structural_join = Dolx_nok.Structural_join
module Labeling = Dolx_policy.Labeling
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Livelink = Dolx_workload.Livelink
open Bench_common

(* 1. codebook on/off *)
let run_dictionary () =
  header "Ablation: dictionary compression (codebook) vs inline ACLs per transition";
  let ll =
    Livelink.generate
      ~config:
        { Livelink.default_config with seed = 31; target_nodes = 20_000 * scale;
          n_departments = 15; users_per_department = 30; n_modes = 1 }
      ()
  in
  let lab = ll.Livelink.labelings.(0) in
  let dol = Dol.of_labeling lab in
  let n_subjects = Dolx_policy.Subject.count ll.Livelink.subjects in
  let t = Dol.transition_count dol in
  let acl_bytes = (n_subjects + 7) / 8 in
  let without_dict = t * acl_bytes in
  let with_dict = Dol.storage_bytes dol in
  table
    [
      [ "design"; "bytes"; "per transition" ];
      [ "inline ACL per transition"; fmt_bytes without_dict; fmt_bytes acl_bytes ];
      [ "codebook + codes"; fmt_bytes with_dict;
        fmt_bytes (Codebook.code_bytes (Dol.codebook dol)) ];
    ];
  Printf.printf "(%d transitions, %d subjects, %d distinct ACLs -> %.1fx saving)\n"
    t n_subjects
    (Codebook.count (Dol.codebook dol))
    (float_of_int without_dict /. float_of_int with_dict)

(* 2. page size sweep *)
let run_page_size () =
  header "Ablation: page size (Q6 //item//emph, secure, cold pool)";
  let tree = Xmark.generate_nodes ~seed:32 (40_000 * scale) in
  let bools =
    Synth_acl.generate_bool tree
      ~params:{ Synth_acl.default with accessibility_ratio = 0.7 }
      (Prng.create 33)
  in
  bools.(0) <- true;
  let dol = Dol.of_bool_array bools in
  let index = Tag_index.build tree in
  let rows =
    [ "page size"; "pages"; "t(sec) ms"; "misses"; "header table" ]
    :: List.map
         (fun page_size ->
           (* run index off: the sweep measures page-level misses and
              the header table *)
           let store =
             Store.create ~run_index:false ~path_summary:false ~page_size ~pool_capacity:64 tree dol
           in
           let pattern = Dolx_nok.Xpath.parse "//item//emph" in
           Buffer_pool.clear (Store.pool store);
           Disk.reset_stats (Store.disk store);
           let t0 = Unix.gettimeofday () in
           ignore (Engine.run store index pattern (Engine.Secure 0));
           let wall = Unix.gettimeofday () -. t0 in
           let t = wall +. (Disk.simulated_us (Store.disk store) /. 1.0e6) in
           let io = Store.io_stats store in
           [
             fmt_bytes page_size;
             fmt_i (Nok_layout.page_count (Store.layout store));
             fmt_f (t *. 1000.0);
             fmt_i io.Store.pool_misses;
             fmt_bytes (Nok_layout.header_table_bytes (Store.layout store));
           ])
         [ 512; 1024; 2048; 4096; 8192; 16384 ]
  in
  table rows

(* 3. fill factor vs splits under an update burst *)
let run_fill_factor () =
  header "Ablation: build fill factor vs update-induced page splits";
  let tree = Xmark.generate_nodes ~seed:34 (20_000 * scale) in
  let n = Tree.size tree in
  let rows =
    [ "fill"; "pages before"; "pages after"; "splits"; "update writes" ]
    :: List.map
         (fun fill ->
           let bools =
             Synth_acl.generate_bool tree ~params:Synth_acl.default (Prng.create 35)
           in
           let dol = Dol.of_bool_array bools in
           let store = Store.create ~page_size:1024 ~fill tree dol in
           let before = Nok_layout.page_count (Store.layout store) in
           let rng = Prng.create 36 in
           Disk.reset_stats (Store.disk store);
           for _ = 1 to 2000 do
             let v = Prng.int rng n in
             ignore
               (Update.set_node_accessibility store ~subject:0
                  ~grant:(Prng.bool rng ~p:0.5) v)
           done;
           let after = Nok_layout.page_count (Store.layout store) in
           let ds = Disk.stats (Store.disk store) in
           [
             Printf.sprintf "%.2f" fill;
             fmt_i before;
             fmt_i after;
             fmt_i (after - before);
             fmt_i ds.Disk.writes;
           ])
         [ 0.6; 0.75; 0.9; 1.0 ]
  in
  table rows

(* 4. ε-STD variants *)
let run_secure_std () =
  header "Ablation: ε-STD path checking — per-pair walks vs stack-cached segments";
  let tree = Xmark.generate_nodes ~seed:37 (40_000 * scale) in
  let n = Tree.size tree in
  let bools =
    Synth_acl.generate_bool tree
      ~params:{ Synth_acl.default with accessibility_ratio = 0.7 }
      (Prng.create 38)
  in
  let dol = Dol.of_bool_array bools in
  let table_of tag =
    let out = ref [] in
    for v = n - 1 downto 0 do
      if Tree.tag_name tree v = tag then out := v :: !out
    done;
    !out
  in
  let alist = table_of "listitem" and dlist = table_of "keyword" in
  let rows =
    [ "variant"; "pairs"; "access checks"; "page touches"; "time ms" ]
    :: List.map
         (fun (name, f) ->
           (* run index off: the table compares the §4.2 join variants'
              own check patterns *)
           let store =
             Store.create ~run_index:false ~path_summary:false ~page_size:4096 ~pool_capacity:128
               tree dol
           in
           Store.reset_stats store;
           let (pairs : (int * int) list), secs =
             time ~reps:3 (fun () -> f store)
           in
           let io = Store.io_stats store in
           [
             name;
             fmt_i (List.length pairs);
             fmt_i io.Store.access_checks;
             fmt_i io.Store.page_touches;
             fmt_f (secs *. 1000.0);
           ])
         [
           ( "unmemoized per-pair walk",
             fun store ->
               Structural_join.secure_stack_tree_desc_unmemoized store ~subject:0
                 ~alist ~dlist );
           ( "per-pair walk + memo",
             fun store ->
               Structural_join.secure_stack_tree_desc_naive store ~subject:0 ~alist
                 ~dlist );
           ( "stack-cached",
             fun store ->
               Structural_join.secure_stack_tree_desc store ~subject:0 ~alist ~dlist );
         ]
  in
  table rows

(* 5. multi-mode DOL *)
let run_multimode () =
  header "Ablation: combined multi-mode DOL vs one DOL per action mode";
  let ll =
    Livelink.generate
      ~config:
        { Livelink.default_config with seed = 39; target_nodes = 15_000 * scale;
          n_departments = 10; users_per_department = 20; n_modes = 10 }
      ()
  in
  let labelings = ll.Livelink.labelings in
  let per_mode = Array.map Dol.of_labeling labelings in
  let combined = Multimode.combine labelings in
  let _, cdol = combined in
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 per_mode in
  table
    [
      [ "design"; "transitions"; "codebook entries"; "bytes" ];
      [
        "10 per-mode DOLs";
        fmt_i (sum Dol.transition_count);
        fmt_i (sum (fun d -> Codebook.count (Dol.codebook d)));
        fmt_bytes (Multimode.per_mode_storage_bytes labelings);
      ];
      [
        "combined (subject x mode bits)";
        fmt_i (Dol.transition_count cdol);
        fmt_i (Codebook.count (Dol.codebook cdol));
        fmt_bytes (Multimode.combined_storage_bytes combined);
      ];
    ]

(* 6. incremental rule maintenance vs full recompilation *)
let run_incremental () =
  header "Ablation: incremental rule updates vs full policy recompilation";
  let tree = Xmark.generate_nodes ~seed:40 (30_000 * scale) in
  let n = Tree.size tree in
  let subjects = Dolx_policy.Subject.create () in
  let s0 = Dolx_policy.Subject.add_user subjects "u0" in
  let s1 = Dolx_policy.Subject.add_user subjects "u1" in
  let modes = Dolx_policy.Mode.create () in
  let m = Dolx_policy.Mode.add modes "read" in
  let module Incremental = Dolx_policy.Incremental in
  let module Rule = Dolx_policy.Rule in
  let rng = Prng.create 41 in
  let random_rule () =
    Rule.make
      ~subject:(if Prng.bool rng ~p:0.5 then s0 else s1)
      ~mode:m ~node:(Prng.int rng n)
      ~sign:(if Prng.bool rng ~p:0.6 then Rule.Grant else Rule.Deny)
      ~scope:Rule.Subtree
  in
  let n_changes = 300 in
  let changes = List.init n_changes (fun _ -> random_rule ()) in
  (* incremental path, DOL kept in sync *)
  let inc = Incremental.create tree ~subjects ~mode:m [] in
  let dol = Dol.of_labeling (Incremental.labeling inc) in
  let (), incr_s =
    time ~reps:1 (fun () ->
        List.iter
          (fun r ->
            let runs = Incremental.add_rule inc r in
            Update.sync_ranges dol (Incremental.labeling inc) runs)
          changes)
  in
  (* recompile-per-change path *)
  let applied = ref [] in
  let (), full_s =
    time ~reps:1 (fun () ->
        List.iter
          (fun r ->
            applied := r :: !applied;
            let lab = Dolx_policy.Propagate.compile tree ~subjects ~mode:m !applied in
            ignore (Dol.of_labeling lab))
          changes)
  in
  table
    [
      [ "strategy"; "rule changes"; "total time ms"; "ms / change" ];
      [ "incremental + DOL range patch"; fmt_i n_changes; fmt_f (incr_s *. 1000.0);
        fmt_f (incr_s *. 1000.0 /. float_of_int n_changes) ];
      [ "recompile + rebuild each time"; fmt_i n_changes; fmt_f (full_s *. 1000.0);
        fmt_f (full_s *. 1000.0 /. float_of_int n_changes) ];
    ];
  (* sanity: both paths agree *)
  Dol.verify_against dol (Incremental.labeling inc)

let run () =
  run_dictionary ();
  run_page_size ();
  run_fill_factor ();
  run_secure_std ();
  run_multimode ();
  run_incremental ()
