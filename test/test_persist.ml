(** Tests for DOL serialization, the streaming secure filter, and
    incremental accessibility-map maintenance. *)

module Tree = Dolx_xml.Tree
module Parser = Dolx_xml.Parser
module Serializer = Dolx_xml.Serializer
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Persist = Dolx_core.Persist
module Stream_filter = Dolx_core.Stream_filter
module Secure_view = Dolx_core.Secure_view
module Update = Dolx_core.Update
module Incremental = Dolx_policy.Incremental
module Subject = Dolx_policy.Subject
module Mode = Dolx_policy.Mode
module Rule = Dolx_policy.Rule
module Propagate = Dolx_policy.Propagate
module Labeling = Dolx_policy.Labeling
module Acl = Dolx_policy.Acl
module Bitset = Dolx_util.Bitset
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

(* --- persistence --- *)

let test_persist_roundtrip_small () =
  let lab =
    Synth_acl.generate_multi (Fixtures.figure2_tree ()) ~seed:1 ~n_subjects:5
      ~n_archetypes:2 ()
  in
  let dol = Dol.of_labeling lab in
  let dol' = Persist.of_bytes (Persist.to_bytes dol) in
  Dol.validate dol';
  check Alcotest.int "nodes" (Dol.n_nodes dol) (Dol.n_nodes dol');
  check Alcotest.int "transitions" (Dol.transition_count dol) (Dol.transition_count dol');
  Dol.verify_against dol' lab

let prop_persist_roundtrip =
  Fixtures.qtest ~count:80 "persist roundtrip preserves every verdict"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 200) (int_range 1 9))
    (fun (seed, n, p10) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n (float_of_int p10 /. 10.0) in
      let dol = Dol.of_bool_array bools in
      let dol' = Persist.of_bytes (Persist.to_bytes dol) in
      Dol.validate dol';
      Array.for_all Fun.id
        (Array.mapi (fun v b -> Dol.accessible dol' ~subject:0 v = b) bools))

let test_persist_file () =
  let dol = Dol.of_bool_array [| true; false; true; true |] in
  let path = Filename.temp_file "dolx" ".dol" in
  Persist.save path dol;
  let dol' = Persist.load path in
  Sys.remove path;
  check Alcotest.int "transitions" (Dol.transition_count dol) (Dol.transition_count dol')

let test_persist_corrupt () =
  let dol = Dol.of_bool_array [| true; false; true |] in
  let good = Persist.to_bytes dol in
  let fails buf =
    match Persist.of_bytes buf with
    | exception Persist.Corrupt _ -> ()
    | _ -> Alcotest.fail "expected Corrupt"
  in
  fails (Bytes.of_string "JUNK");
  fails (Bytes.sub good 0 (Bytes.length good - 1));
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  fails bad_magic;
  let bad_version = Bytes.copy good in
  Bytes.set_uint8 bad_version 4 9;
  fails bad_version

let test_persist_delta_compression () =
  (* clustered transitions must serialize small *)
  let tree = Xmark.generate_nodes ~seed:2 10_000 in
  let bools =
    Synth_acl.generate_bool tree ~params:Synth_acl.default (Prng.create 3)
  in
  let dol = Dol.of_bool_array bools in
  let bytes = Persist.serialized_bytes dol in
  (* header + 1 byte/codebook entry + <= ~4 bytes per transition *)
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes for %d transitions" bytes (Dol.transition_count dol))
    true
    (bytes < 16 + Codebook.count (Dol.codebook dol) + (5 * Dol.transition_count dol))

(* --- database files --- *)

module Db_file = Dolx_core.Db_file
module Store = Dolx_core.Secure_store
module Engine = Dolx_nok.Engine
module Tag_index = Dolx_index.Tag_index

let test_db_file_roundtrip () =
  let tree = Xmark.generate_nodes ~seed:61 1500 in
  let n = Tree.size tree in
  let rng = Prng.create 62 in
  let bools = Fixtures.random_bools rng n 0.6 in
  bools.(0) <- true;
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:512 tree dol in
  (* apply a physical update so the file must reflect buffered state *)
  ignore (Update.set_node_accessibility store ~subject:0 ~grant:false 10);
  let store', _ = Db_file.of_bytes (Db_file.to_bytes store) in
  let tree' = Store.tree store' in
  check Alcotest.string "structure" (Tree.structure_string tree) (Tree.structure_string tree');
  for v = 0 to n - 1 do
    if Tree.text tree v <> "" then
      check Alcotest.string (Printf.sprintf "text %d" v) (Tree.text tree v)
        (Tree.text tree' v);
    Alcotest.(check bool)
      (Printf.sprintf "access %d" v)
      (Store.accessible store ~subject:0 v)
      (Store.accessible store' ~subject:0 v)
  done;
  (* queries behave identically on the reopened store *)
  let index = Tag_index.build tree and index' = Tag_index.build tree' in
  List.iter
    (fun (_, q) ->
      check Fixtures.int_list q
        (Engine.query store index q (Engine.Secure 0)).Engine.answers
        (Engine.query store' index' q (Engine.Secure 0)).Engine.answers)
    Xmark.queries

let test_db_file_pool_capacity_1 () =
  (* a reload must stay correct under maximal buffer-pool pressure: every
     page access evicts the previous frame *)
  let tree = Xmark.generate_nodes ~seed:71 800 in
  let n = Tree.size tree in
  let rng = Prng.create 72 in
  let bools = Fixtures.random_bools rng n 0.5 in
  bools.(0) <- true;
  let store = Store.create ~page_size:256 tree (Dol.of_bool_array bools) in
  let store', _ =
    Db_file.of_bytes ~pool_capacity:1 (Db_file.to_bytes store)
  in
  for v = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "access %d" v)
      (Store.accessible store ~subject:0 v)
      (Store.accessible store' ~subject:0 v)
  done;
  (* and it serializes back identically from the capacity-1 pool *)
  let store'', _ =
    Db_file.of_bytes ~pool_capacity:1 (Db_file.to_bytes store')
  in
  for v = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "re-roundtrip access %d" v)
      (Store.accessible store ~subject:0 v)
      (Store.accessible store'' ~subject:0 v)
  done

let test_db_file_on_disk () =
  let tree = Fixtures.library_tree () in
  let dol = Dol.of_bool_array (Array.make (Tree.size tree) true) in
  let store = Store.create tree dol in
  let path = Filename.temp_file "dolx" ".db" in
  Db_file.save path store;
  let store', registries = Db_file.load path in
  Alcotest.(check bool) "no registry section" true (registries = None);
  Sys.remove path;
  check Alcotest.string "reloaded structure" (Tree.structure_string tree)
    (Tree.structure_string (Store.tree store'))

let test_db_file_registry_roundtrip () =
  let tree = Fixtures.library_tree () in
  let subjects = Subject.create () in
  let alice = Subject.add_user subjects "alice" in
  let staff = Subject.add_group subjects "staff" in
  Subject.add_membership subjects ~child:alice ~group:staff;
  let modes = Mode.create () in
  ignore (Mode.add modes "read");
  let dol = Dol.of_bool_array (Array.make (Tree.size tree) true) in
  let store = Store.create tree dol in
  let store', registries =
    Db_file.of_bytes (Db_file.to_bytes ~subjects ~modes store)
  in
  ignore store';
  match registries with
  | None -> Alcotest.fail "registry lost"
  | Some (subjects', modes') ->
      check Alcotest.int "subject count" 2 (Subject.count subjects');
      check Alcotest.string "name" "alice" (Subject.name subjects' 0);
      Alcotest.(check bool) "kind" true (Subject.kind subjects' 1 = Subject.Group);
      check Fixtures.int_list "membership survives"
        (Subject.closure subjects alice)
        (Subject.closure subjects' 0);
      check Alcotest.(option int) "mode name" (Some 0) (Mode.find_opt modes' "read")

let test_db_file_after_splits () =
  (* pack pages full, force splits with updates, then round-trip the db
     file: logical page order must survive even though physical page ids
     are out of order after splits *)
  let rng = Prng.create 81 in
  let tree = Fixtures.random_tree rng 300 in
  let bools = Array.make 300 false in
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:128 ~fill:1.0 tree dol in
  let before_pages =
    Dolx_storage.Nok_layout.page_count (Store.layout store)
  in
  for v = 0 to 299 do
    if v mod 2 = 0 then ignore (Update.set_node_accessibility store ~subject:0 ~grant:true v)
  done;
  let after_pages = Dolx_storage.Nok_layout.page_count (Store.layout store) in
  Alcotest.(check bool) "splits happened" true (after_pages > before_pages);
  let store', _ = Db_file.of_bytes (Db_file.to_bytes store) in
  check Alcotest.string "structure survives splits"
    (Tree.structure_string tree)
    (Tree.structure_string (Store.tree store'));
  for v = 0 to 299 do
    Alcotest.(check bool) (Printf.sprintf "access %d" v)
      (Store.accessible store ~subject:0 v)
      (Store.accessible store' ~subject:0 v)
  done

let test_db_file_corrupt () =
  let tree = Fixtures.library_tree () in
  let dol = Dol.of_bool_array (Array.make (Tree.size tree) true) in
  let store = Store.create tree dol in
  let good = Db_file.to_bytes store in
  let fails buf =
    match Db_file.of_bytes buf with
    | exception Db_file.Corrupt _ -> ()
    | _ -> Alcotest.fail "expected Corrupt"
  in
  fails (Bytes.of_string "NOTADB");
  fails (Bytes.sub good 0 (Bytes.length good / 2));
  let bad = Bytes.copy good in
  Bytes.set bad 0 'X';
  fails bad

(* --- streaming filter --- *)

let test_stream_filter_equals_view () =
  let tree = Fixtures.library_tree () in
  let n = Tree.size tree in
  let bools = Array.make n true in
  bools.(8) <- false (* hide the box subtree root *);
  bools.(9) <- false;
  bools.(10) <- false;
  bools.(11) <- false;
  let dol = Dol.of_bool_array bools in
  let xml = Serializer.to_string tree in
  List.iter
    (fun sem ->
      let filtered = Stream_filter.filter_string ~semantics:sem dol ~subject:0 xml in
      let expected = Serializer.to_string (Secure_view.view ~semantics:sem tree dol ~subject:0) in
      (* normalize by re-parsing: self-closing vs open/close differences *)
      check Alcotest.string
        (match sem with Stream_filter.Prune_subtree -> "prune" | _ -> "lift")
        (Tree.structure_string (Parser.parse expected))
        (Tree.structure_string (Parser.parse filtered)))
    [ Stream_filter.Prune_subtree; Stream_filter.Lift_children ]

let prop_stream_filter_equals_view =
  Fixtures.qtest ~count:60 "stream filter = secure view on random data"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 150) bool)
    (fun (seed, n, lift) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n 0.6 in
      bools.(0) <- true;
      let dol = Dol.of_bool_array bools in
      let sem = if lift then Stream_filter.Lift_children else Stream_filter.Prune_subtree in
      let xml = Serializer.to_string tree in
      let filtered = Stream_filter.filter_string ~semantics:sem dol ~subject:0 xml in
      let expected =
        Serializer.to_string (Secure_view.view ~semantics:sem tree dol ~subject:0)
      in
      Tree.structure_string (Parser.parse filtered)
      = Tree.structure_string (Parser.parse expected))

let test_stream_filter_event_counts () =
  let tree = Fixtures.figure2_tree () in
  let bools = [| true; false; false; false; true; true; true; false; true; true; true; true |] in
  let dol = Dol.of_bool_array bools in
  let count = ref 0 in
  let t = Stream_filter.create dol ~subject:0 ~emit:(fun _ -> incr count) in
  Parser.parse_events (Serializer.to_string tree) (Stream_filter.push t);
  check Alcotest.int "events in" 24 (Stream_filter.events_in t);
  (* prune view is a(e(f)(g)): 4 elements = 8 events *)
  check Alcotest.int "events out" 8 (Stream_filter.events_out t);
  check Alcotest.int "emit called" 8 !count

let test_stream_filter_overflow () =
  let dol = Dol.of_bool_array [| true |] in
  let t = Stream_filter.create dol ~subject:0 ~emit:(fun _ -> ()) in
  Stream_filter.push t (Parser.Start ("a", []));
  Alcotest.check_raises "too many elements"
    (Invalid_argument "Stream_filter: more elements than the DOL covers")
    (fun () -> Stream_filter.push t (Parser.Start ("b", [])))

let prop_stream_filter_multi_subject =
  Fixtures.qtest ~count:40 "stream filter per subject = per-subject view"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 2 80))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let lab =
        Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects:4
          ~n_archetypes:2 ()
      in
      let dol = Dol.of_labeling lab in
      let xml = Serializer.to_string tree in
      List.for_all
        (fun s ->
          if not (Dol.accessible dol ~subject:s 0) then true
          else
            let filtered = Stream_filter.filter_string dol ~subject:s xml in
            let view = Secure_view.view tree dol ~subject:s in
            Tree.structure_string (Parser.parse filtered)
            = Tree.structure_string view)
        [ 0; 1; 2; 3 ])

(* --- fully streaming construction: events -> DOL + pages in one pass --- *)

module Nok_layout = Dolx_storage.Nok_layout
module Disk = Dolx_storage.Disk
module Buffer_pool = Dolx_storage.Buffer_pool

let test_stream_layout_equals_batch () =
  let tree = Xmark.generate_nodes ~seed:71 2000 in
  let n = Tree.size tree in
  let rng = Prng.create 72 in
  let bools = Fixtures.random_bools rng n 0.55 in
  let lab = Labeling.of_bool_array bools in
  (* batch path *)
  let dol_batch = Dol.of_labeling lab in
  let disk_b = Disk.create ~page_size:512 () in
  let layout_b =
    Nok_layout.build disk_b tree
      ~trans_pre:dol_batch.Dol.trans_pre ~trans_code:dol_batch.Dol.trans_code
  in
  (* one-pass path: walk the serialized document's events, pushing the
     node ACL into the streaming DOL and the (tag, code) into the
     streaming layout *)
  let disk_s = Disk.create ~page_size:512 () in
  let slb = Nok_layout.stream disk_s in
  let dolb = Dol.Streaming.create ~width:1 in
  let table = Tree.tag_table tree in
  let pre = ref 0 in
  Parser.parse_events (Serializer.to_string tree) (function
    | Parser.Start (name, _) ->
        let code = Dol.Streaming.push dolb (Labeling.acl lab !pre) in
        incr pre;
        Nok_layout.start_element slb
          ~tag:(Option.get (Dolx_xml.Tag.find_opt table name))
          ?code ()
    | Parser.End _ -> Nok_layout.end_element slb
    | Parser.Text _ -> ());
  let dol_stream = Dol.Streaming.finish dolb in
  let layout_s = Nok_layout.end_stream slb in
  (* the two paths agree on everything observable *)
  check Alcotest.int "page count" (Nok_layout.page_count layout_b)
    (Nok_layout.page_count layout_s);
  check Alcotest.int "node count" n (Nok_layout.node_count layout_s);
  let pool_b = Buffer_pool.create ~capacity:16 disk_b in
  let pool_s = Buffer_pool.create ~capacity:16 disk_s in
  check Fixtures.int_list "codes agree"
    (Array.to_list (Nok_layout.codes_of_all_nodes layout_b pool_b))
    (Array.to_list (Nok_layout.codes_of_all_nodes layout_s pool_s));
  let t_s = Nok_layout.decode_tree layout_s pool_s ~tag_table:table in
  check Alcotest.string "structure agrees" (Tree.structure_string tree)
    (Tree.structure_string t_s);
  for lp = 0 to Nok_layout.page_count layout_b - 1 do
    let hb = Nok_layout.header layout_b lp and hs = Nok_layout.header layout_s lp in
    check Alcotest.int (Printf.sprintf "first_pre %d" lp) hb.Nok_layout.first_pre
      hs.Nok_layout.first_pre;
    check Alcotest.int (Printf.sprintf "first_code %d" lp) hb.Nok_layout.first_code
      hs.Nok_layout.first_code;
    check Alcotest.int (Printf.sprintf "first_depth %d" lp) hb.Nok_layout.first_depth
      hs.Nok_layout.first_depth;
    Alcotest.(check bool) (Printf.sprintf "change %d" lp) hb.Nok_layout.change
      hs.Nok_layout.change
  done;
  Dol.verify_against dol_stream lab

let prop_stream_layout_random =
  Fixtures.qtest ~count:50 "streaming layout = batch layout on random trees"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 250) (int_range 6 10))
    (fun (seed, n, psize_log) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      let page_size = 1 lsl psize_log in
      let disk_b = Disk.create ~page_size () in
      let layout_b =
        Nok_layout.build disk_b tree ~trans_pre:dol.Dol.trans_pre ~trans_code:dol.Dol.trans_code
      in
      let disk_s = Disk.create ~page_size () in
      let slb = Nok_layout.stream disk_s in
      let dolb = Dol.Streaming.create ~width:1 in
      let lab = Labeling.of_bool_array bools in
      let rec walk v =
        let code = Dol.Streaming.push dolb (Labeling.acl lab v) in
        Nok_layout.start_element slb ~tag:(Tree.tag tree v) ?code ();
        Tree.iter_children walk tree v;
        Nok_layout.end_element slb
      in
      walk Tree.root;
      let layout_s = Nok_layout.end_stream slb in
      let pool_b = Buffer_pool.create ~capacity:16 disk_b in
      let pool_s = Buffer_pool.create ~capacity:16 disk_s in
      Nok_layout.page_count layout_b = Nok_layout.page_count layout_s
      && Nok_layout.codes_of_all_nodes layout_b pool_b
         = Nok_layout.codes_of_all_nodes layout_s pool_s
      && Tree.structure_string (Nok_layout.decode_tree layout_s pool_s
                                  ~tag_table:(Tree.tag_table tree))
         = Tree.structure_string tree)

(* The streaming driver shares the packer's checks with the batch
   build: a document whose first element carries no transition code
   (there is no code to put in the first page header), and a second
   top-level element (no tree could be decoded from the pages). *)
let test_stream_layout_rejects () =
  let stream events =
    let s = Nok_layout.stream (Disk.create ~page_size:256 ()) in
    List.iter
      (function
        | `Start code -> Nok_layout.start_element s ~tag:0 ?code ()
        | `End -> Nok_layout.end_element s)
      events;
    ignore (Nok_layout.end_stream s)
  in
  Alcotest.check_raises "root without a transition code"
    (Invalid_argument "Nok_layout: the first node carries no access-control code")
    (fun () -> stream [ `Start None; `Start None; `End; `End ]);
  Alcotest.check_raises "second top-level element"
    (Invalid_argument "Nok_layout: more than one top-level element")
    (fun () -> stream [ `Start (Some 0); `End; `Start None; `End ]);
  (* the well-formed counterpart is accepted *)
  stream [ `Start (Some 0); `Start None; `End; `End ]

(* --- incremental maintenance --- *)

let incr_setup n seed =
  let rng = Prng.create seed in
  let tree = Fixtures.random_tree rng n in
  let subjects = Subject.create () in
  let s0 = Subject.add_user subjects "u0" in
  let s1 = Subject.add_user subjects "u1" in
  let modes = Mode.create () in
  let m = Mode.add modes "read" in
  (tree, subjects, s0, s1, m, rng)

let random_rule rng n subjects m =
  let subject = Prng.choose_list rng subjects in
  Rule.make ~subject ~mode:m ~node:(Prng.int rng n)
    ~sign:(if Prng.bool rng ~p:0.6 then Rule.Grant else Rule.Deny)
    ~scope:(if Prng.bool rng ~p:0.7 then Rule.Subtree else Rule.Self)

let test_incremental_matches_recompile () =
  let tree, subjects, s0, s1, m, rng = incr_setup 300 7 in
  let n = Tree.size tree in
  let inc = Incremental.create tree ~subjects ~mode:m [] in
  let applied = ref [] in
  for _ = 1 to 40 do
    let r = random_rule rng n [ s0; s1 ] m in
    ignore (Incremental.add_rule inc r);
    applied := r :: !applied;
    (* occasionally remove a random earlier rule *)
    if Prng.bool rng ~p:0.3 && !applied <> [] then begin
      let victim = List.nth !applied (Prng.int rng (List.length !applied)) in
      ignore (Incremental.remove_rule inc victim);
      applied :=
        (let removed = ref false in
         List.filter (fun r -> if (not !removed) && r = victim then (removed := true; false) else true) !applied)
    end
  done;
  let expected = Propagate.compile tree ~subjects ~mode:m !applied in
  let got = Incremental.labeling inc in
  for v = 0 to n - 1 do
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d subject %d" v s)
          (Labeling.accessible expected ~subject:s v)
          (Labeling.accessible got ~subject:s v))
      [ s0; s1 ]
  done

let test_incremental_changed_runs_cover () =
  let tree, subjects, s0, _, m, _ = incr_setup 200 9 in
  let inc = Incremental.create tree ~subjects ~mode:m [] in
  let before = Array.init (Tree.size tree) (fun v ->
      Labeling.accessible (Incremental.labeling inc) ~subject:s0 v) in
  let anchor = 5 mod Tree.size tree in
  let runs = Incremental.add_rule inc (Rule.grant ~subject:s0 ~mode:m anchor) in
  let after = Array.init (Tree.size tree) (fun v ->
      Labeling.accessible (Incremental.labeling inc) ~subject:s0 v) in
  let in_runs v = List.exists (fun (lo, hi) -> v >= lo && v <= hi) runs in
  Array.iteri
    (fun v b ->
      if b <> after.(v) then
        Alcotest.(check bool) (Printf.sprintf "changed %d covered" v) true (in_runs v))
    before;
  (* runs must lie within the anchor's subtree *)
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "run in subtree" true
        (lo >= anchor && hi <= Tree.subtree_end tree anchor))
    runs

let test_incremental_sync_dol () =
  let tree, subjects, s0, s1, m, rng = incr_setup 250 11 in
  let n = Tree.size tree in
  let inc = Incremental.create tree ~subjects ~mode:m [] in
  let dol = Dol.of_labeling (Incremental.labeling inc) in
  for _ = 1 to 25 do
    let r = random_rule rng n [ s0; s1 ] m in
    let runs = Incremental.add_rule inc r in
    Update.sync_ranges dol (Incremental.labeling inc) runs
  done;
  Dol.validate dol;
  Dol.verify_against dol (Incremental.labeling inc)

let test_incremental_remove_not_found () =
  let tree, subjects, s0, _, m, _ = incr_setup 50 13 in
  let inc = Incremental.create tree ~subjects ~mode:m [] in
  Alcotest.check_raises "missing rule" Not_found (fun () ->
      ignore (Incremental.remove_rule inc (Rule.grant ~subject:s0 ~mode:m 3)))

let test_incremental_noop_runs_empty () =
  let tree, subjects, s0, _, m, _ = incr_setup 80 15 in
  let inc =
    Incremental.create tree ~subjects ~mode:m [ Rule.grant ~subject:s0 ~mode:m 0 ]
  in
  (* granting again changes nothing *)
  let runs = Incremental.add_rule inc (Rule.grant ~subject:s0 ~mode:m 0) in
  check Alcotest.int "no changed runs" 0 (List.length runs)

(* A database file keeps the fill its store was compiled at: a store
   loaded from the file rebuilds to the same page count as the
   in-memory store it came from.  (The default fill adds nothing to
   the file: the CRC reference fixture pins that byte for byte.) *)
let test_db_file_rebuild_keeps_fill () =
  let tree = Xmark.generate_nodes ~seed:63 1200 in
  let n = Tree.size tree in
  let dol = Dol.of_bool_array (Fixtures.random_bools (Prng.create 64) n 0.5) in
  let store = Store.create ~page_size:256 ~fill:0.5 tree dol in
  let loaded, _ = Db_file.of_bytes (Db_file.to_bytes store) in
  check (Alcotest.float 0.0) "fill survives the file" 0.5 (Store.fill loaded);
  let tree' = Tree.remove_subtree tree 1 in
  let dol' = Update.dol_delete dol ~lo:1 ~hi:(Tree.subtree_end tree 1) in
  let pages s = Dolx_storage.Nok_layout.page_count (Store.layout s) in
  check Alcotest.int "loaded store rebuilds at the compiled fill"
    (pages (Store.rebuild store tree' dol'))
    (pages (Store.rebuild loaded tree' dol'));
  let default, _ =
    Db_file.of_bytes (Db_file.to_bytes (Store.create ~page_size:256 tree dol))
  in
  check (Alcotest.float 0.0) "default fill" 0.9 (Store.fill default)


(* --- the codebook entry codec --- *)

(* The entry coder as it went bit by bit, kept as the reference for
   [Bitset.write_bytes] / [Bitset.of_bytes]. *)
let bitwise_to_bytes bits =
  let out = Bytes.make ((Bitset.width bits + 7) / 8) '\000' in
  Bitset.iter_set
    (fun i ->
      let b = Bytes.get_uint8 out (i / 8) in
      Bytes.set_uint8 out (i / 8) (b lor (1 lsl (i mod 8))))
    bits;
  out

let bitwise_of_bytes ~width buf pos =
  let bits = Bitset.create width in
  for i = 0 to width - 1 do
    if Bytes.get_uint8 buf (pos + (i / 8)) land (1 lsl (i mod 8)) <> 0 then
      Bitset.set bits i true
  done;
  bits

(* Widths around the 63-bit word boundaries, where a byte straddles two
   words, and random ones. *)
let gen_codec_width =
  QCheck2.Gen.(oneof [ oneofl [ 0; 1; 7; 8; 9; 62; 63; 64; 126; 127; 189; 256; 300 ]; int_bound 400 ])

let prop_codec_encode =
  Fixtures.qtest ~count:300 "byte codec encode = bit-by-bit encoder"
    QCheck2.Gen.(triple (int_bound 100_000) gen_codec_width (int_bound 9))
    (fun (seed, width, pos) ->
      let rng = Prng.create seed in
      let p = Prng.float rng in
      let bits = Bitset.create width in
      for i = 0 to width - 1 do
        if Prng.bool rng ~p then Bitset.set bits i true
      done;
      let nbytes = (width + 7) / 8 in
      (* surrounding junk must survive untouched *)
      let buf = Bytes.init (pos + nbytes + 3) (fun _ -> Char.chr (Prng.int rng 256)) in
      let before = Bytes.copy buf in
      Bitset.write_bytes bits buf pos;
      Bytes.sub buf pos nbytes = bitwise_to_bytes bits
      && Bytes.sub buf 0 pos = Bytes.sub before 0 pos
      && Bytes.sub buf (pos + nbytes) 3 = Bytes.sub before (pos + nbytes) 3)

let prop_codec_decode =
  Fixtures.qtest ~count:300 "byte codec decode = bit-by-bit decoder"
    QCheck2.Gen.(triple (int_bound 100_000) gen_codec_width (int_bound 9))
    (fun (seed, width, pos) ->
      let rng = Prng.create seed in
      let nbytes = (width + 7) / 8 in
      (* random bytes, so the last one carries junk past the width *)
      let buf = Bytes.init (pos + nbytes) (fun _ -> Char.chr (Prng.int rng 256)) in
      let got = Bitset.of_bytes ~width buf pos in
      (* the image without the junk *)
      let clean = Bytes.sub buf pos nbytes in
      if width mod 8 <> 0 then
        Bytes.set_uint8 clean (nbytes - 1)
          (Bytes.get_uint8 clean (nbytes - 1) land ((1 lsl (width mod 8)) - 1));
      Bitset.equal got (bitwise_of_bytes ~width buf pos) && bitwise_to_bytes got = clean)

(* A subject removal leaves equal entries under distinct codes; the
   transitions reference those codes, so a load must keep every entry
   at its index. *)
let test_persist_duplicate_entries () =
  let store = Acl.create ~width:3 in
  let acl l = Acl.intern store (Bitset.of_list 3 l) in
  let node_acl = [| acl [ 0 ]; acl [ 0; 2 ]; acl [ 2 ]; acl [ 1; 2 ]; acl []; acl [ 0; 1 ]; acl [ 0 ] |] in
  let dol = Dol.of_labeling (Labeling.create ~store ~node_acl) in
  Update.remove_subject dol 2;
  let cb = Dol.codebook dol in
  check Alcotest.bool "removal left duplicates" true (Codebook.redundant_entries cb > 0);
  let dol' = Persist.of_bytes (Persist.to_bytes dol) in
  let cb' = Dol.codebook dol' in
  check Alcotest.int "entries" (Codebook.count cb) (Codebook.count cb');
  for c = 0 to Codebook.count cb - 1 do
    check Alcotest.bool (Printf.sprintf "entry %d" c) true
      (Bitset.equal (Codebook.get cb c) (Codebook.get cb' c));
    (* interning converges on the lowest code carrying the ACL *)
    check Alcotest.int (Printf.sprintf "intern entry %d" c)
      (Codebook.intern (Codebook.copy cb) (Codebook.get cb c))
      (Codebook.intern cb' (Codebook.get cb' c))
  done;
  check Fixtures.int_list "transition codes" (Array.to_list dol.Dol.trans_code)
    (Array.to_list dol'.Dol.trans_code);
  check Alcotest.int "redundant entries" (Codebook.redundant_entries cb)
    (Codebook.redundant_entries cb');
  check Alcotest.bool "same image" true (Persist.to_bytes dol = Persist.to_bytes dol')

(* A read-only open builds no intern index: not a [Persist] load, not a
   [Db_file] load, not Q1–Q6 under every semantics with the run index on
   or off.  The first update builds it. *)
let test_read_only_opens_build_no_index () =
  let tree = Xmark.generate_nodes ~seed:12 3000 in
  let dol = Dol.of_labeling (Synth_acl.generate_multi tree ~seed:13 ~n_subjects:6 ()) in
  let indexed store = Codebook.indexed_entries (Store.codebook store) in
  check Alcotest.int "of_labeling" 0 (Codebook.indexed_entries (Dol.codebook dol));
  let loaded = Persist.of_bytes (Persist.to_bytes dol) in
  check Alcotest.int "persist load" 0 (Codebook.indexed_entries (Dol.codebook loaded));
  let store, _ = Db_file.of_bytes (Db_file.to_bytes (Store.create tree dol)) in
  check Alcotest.int "db file load" 0 (indexed store);
  let index = Tag_index.build tree in
  List.iter
    (fun run_index ->
      Store.set_run_index store run_index;
      List.iter
        (fun (_, q) ->
          List.iter
            (fun sem -> ignore (Engine.query store index q sem))
            [ Engine.Insecure; Engine.Secure 1; Engine.Secure_path 1 ])
        Xmark.queries)
    [ true; false ];
  check Alcotest.int "Q1-Q6, runs on and off" 0 (indexed store);
  let v = 5 in
  let grant = not (Dol.accessible (Store.dol store) ~subject:1 v) in
  check Alcotest.bool "the update changed the DOL" true
    (Update.set_node_accessibility store ~subject:1 ~grant v);
  check Alcotest.bool "the first update built the index" true (indexed store > 0)

let suite =
  [
    Alcotest.test_case "persist: roundtrip (multi-subject)" `Quick test_persist_roundtrip_small;
    prop_persist_roundtrip;
    Alcotest.test_case "persist: file save/load" `Quick test_persist_file;
    Alcotest.test_case "persist: corrupt input" `Quick test_persist_corrupt;
    Alcotest.test_case "persist: delta compression" `Quick test_persist_delta_compression;
    Alcotest.test_case "db file: roundtrip" `Quick test_db_file_roundtrip;
    Alcotest.test_case "db file: pool capacity 1" `Quick
      test_db_file_pool_capacity_1;
    Alcotest.test_case "db file: on disk" `Quick test_db_file_on_disk;
    Alcotest.test_case "db file: registry roundtrip" `Quick test_db_file_registry_roundtrip;
    Alcotest.test_case "db file: after page splits" `Quick test_db_file_after_splits;
    Alcotest.test_case "db file: corrupt" `Quick test_db_file_corrupt;
    Alcotest.test_case "stream filter = secure view" `Quick test_stream_filter_equals_view;
    prop_stream_filter_equals_view;
    Alcotest.test_case "stream filter event counts" `Quick test_stream_filter_event_counts;
    Alcotest.test_case "stream filter overflow" `Quick test_stream_filter_overflow;
    prop_stream_filter_multi_subject;
    Alcotest.test_case "streaming layout = batch (xmark)" `Quick
      test_stream_layout_equals_batch;
    prop_stream_layout_random;
    Alcotest.test_case "incremental = full recompile" `Quick test_incremental_matches_recompile;
    Alcotest.test_case "incremental changed runs cover" `Quick
      test_incremental_changed_runs_cover;
    Alcotest.test_case "incremental syncs a DOL" `Quick test_incremental_sync_dol;
    Alcotest.test_case "incremental remove not found" `Quick
      test_incremental_remove_not_found;
    Alcotest.test_case "incremental no-op" `Quick test_incremental_noop_runs_empty;
    Alcotest.test_case "streaming layout rejects bad documents" `Quick
      test_stream_layout_rejects;
    Alcotest.test_case "db file: loaded store rebuilds at its fill" `Quick
      test_db_file_rebuild_keeps_fill;
    prop_codec_encode;
    prop_codec_decode;
    Alcotest.test_case "persist: duplicate entries keep their codes" `Quick
      test_persist_duplicate_entries;
    Alcotest.test_case "read-only opens build no intern index" `Quick
      test_read_only_opens_build_no_index;
  ]
