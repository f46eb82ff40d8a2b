(** Tests for the DOL core: construction, lookup, codebook, streaming,
    updates and Proposition 1. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Codebook = Dolx_core.Codebook
module Update = Dolx_core.Update
module Persist = Dolx_core.Persist
module Labeling = Dolx_policy.Labeling
module Acl = Dolx_policy.Acl
module Bitset = Dolx_util.Bitset
module Prng = Dolx_util.Prng

let check = Alcotest.check

(* The single-subject example of Figure 1(a): on the figure-2 tree, make
   nodes b, c, d and the h-subtree accessible. *)
let figure1_bools = [| false; true; true; true; false; false; false; true; true; true; true; true |]

let test_single_subject_transitions () =
  let dol = Dol.of_bool_array figure1_bools in
  (* document order: a(-) b(+) c(+) d(+) e(-) f(-) g(-) h(+) ... l(+)
     transitions at 0(-), 1(+), 4(-), 7(+) *)
  check Alcotest.int "transition count" 4 (Dol.transition_count dol);
  check Fixtures.int_list "transition preorders" [ 0; 1; 4; 7 ]
    (Array.to_list dol.Dol.trans_pre);
  Dol.validate dol

let test_lookup_all_nodes () =
  let dol = Dol.of_bool_array figure1_bools in
  Array.iteri
    (fun v expected ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d" v)
        expected
        (Dol.accessible dol ~subject:0 v))
    figure1_bools

let test_root_always_transition () =
  let dol = Dol.of_bool_array (Array.make 5 true) in
  check Alcotest.int "uniform doc has exactly one transition" 1 (Dol.transition_count dol);
  Alcotest.(check bool) "root is transition" true (Dol.is_transition dol 0);
  Alcotest.(check bool) "node 3 is not" false (Dol.is_transition dol 3)

(* Multi-subject: Figure 1(b)/(c) — two subjects, codebook compression. *)
let two_subject_labeling () =
  let store = Acl.create ~width:2 in
  let code l = Acl.intern store (Bitset.of_list 2 l) in
  (* node ACLs chosen to exercise repeated codes *)
  let node_acl =
    [|
      code [ 0 ];      (* a: subject 0 only *)
      code [ 0; 1 ];   (* b *)
      code [ 0; 1 ];   (* c: same as b -> no transition *)
      code [ 1 ];      (* d *)
      code [ 0 ];      (* e: same ACL as a -> code reused *)
      code [ 0 ];      (* f *)
      code [ 0; 1 ];   (* g *)
      code [ 0; 1 ];   (* h *)
      code [ 1 ];      (* i *)
      code [ 1 ];      (* j *)
      code [ 0 ];      (* k *)
      code [ 0 ];      (* l *)
    |]
  in
  Labeling.create ~store ~node_acl

let test_multi_subject_codebook () =
  let lab = two_subject_labeling () in
  let dol = Dol.of_labeling lab in
  (* transitions at 0,1,3,4,6,8,10 *)
  check Fixtures.int_list "transitions" [ 0; 1; 3; 4; 6; 8; 10 ]
    (Array.to_list dol.Dol.trans_pre);
  (* only 3 distinct ACLs -> 3 codebook entries (paper Fig. 1(c): "the
     codebook itself contains three entries") *)
  check Alcotest.int "codebook entries" 3 (Codebook.count (Dol.codebook dol));
  Dol.verify_against dol lab

let test_streaming_equals_batch () =
  let lab = two_subject_labeling () in
  let batch = Dol.of_labeling lab in
  let b = Dol.Streaming.create ~width:2 in
  let emitted = ref 0 in
  for v = 0 to Labeling.size lab - 1 do
    match Dol.Streaming.push b (Labeling.acl lab v) with
    | Some _ -> incr emitted
    | None -> ()
  done;
  let streamed = Dol.Streaming.finish b in
  check Alcotest.int "same transition count" (Dol.transition_count batch)
    (Dol.transition_count streamed);
  check Alcotest.int "emitted = transitions" (Dol.transition_count batch) !emitted;
  check Fixtures.int_list "same preorders"
    (Array.to_list batch.Dol.trans_pre)
    (Array.to_list streamed.Dol.trans_pre);
  Dol.verify_against streamed lab

let prop_dol_agrees_with_labeling =
  Fixtures.qtest ~count:100 "DOL lookup = labeling on random data"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 300) (int_range 1 9))
    (fun (seed, n, p10) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n (float_of_int p10 /. 10.0) in
      let dol = Dol.of_bool_array bools in
      Dol.validate dol;
      Array.for_all Fun.id
        (Array.mapi (fun v b -> Dol.accessible dol ~subject:0 v = b) bools))

let prop_transition_count_is_boundaries =
  Fixtures.qtest ~count:100 "transition count = boundary count"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 300))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      let boundaries = ref 1 in
      for v = 1 to n - 1 do
        if bools.(v) <> bools.(v - 1) then incr boundaries
      done;
      Dol.transition_count dol = !boundaries)

let test_storage_accounting () =
  let lab = two_subject_labeling () in
  let dol = Dol.of_labeling lab in
  (* 3 entries of 1 byte each (2 subjects) *)
  check Alcotest.int "codebook bytes" 3 (Dol.codebook_bytes dol);
  (* 7 transitions, 1-byte codes (< 256 entries) *)
  check Alcotest.int "embedded bytes" 7 (Dol.embedded_bytes dol);
  check Alcotest.int "total" 10 (Dol.storage_bytes dol);
  Alcotest.(check (float 1e-9)) "density" (7.0 /. 12.0) (Dol.transition_density dol)

(* --- updates --- *)

let apply_bools_update bools ~lo ~hi b =
  let out = Array.copy bools in
  for v = lo to hi do
    out.(v) <- b
  done;
  out

let test_update_set_node () =
  let bools = Array.copy figure1_bools in
  let dol = Dol.of_bool_array bools in
  let before = Dol.transition_count dol in
  let changed = Update.dol_set_node dol ~subject:0 ~grant:true 5 in
  Alcotest.(check bool) "changed" true changed;
  let expected = apply_bools_update bools ~lo:5 ~hi:5 true in
  Array.iteri
    (fun v b ->
      Alcotest.(check bool) (Printf.sprintf "node %d" v) b (Dol.accessible dol ~subject:0 v))
    expected;
  Alcotest.(check bool) "proposition 1" true (Dol.transition_count dol <= before + 2);
  Dol.validate dol

let test_update_set_node_noop () =
  let dol = Dol.of_bool_array (Array.copy figure1_bools) in
  let before = Dol.transition_count dol in
  let changed = Update.dol_set_node dol ~subject:0 ~grant:true 1 in
  Alcotest.(check bool) "no-op detected" false changed;
  check Alcotest.int "unchanged" before (Dol.transition_count dol)

let test_update_set_node_merges () =
  (* setting the single inaccessible node in the middle of an accessible
     run must *reduce* transitions *)
  let bools = [| true; true; false; true; true |] in
  let dol = Dol.of_bool_array bools in
  check Alcotest.int "3 transitions initially" 3 (Dol.transition_count dol);
  ignore (Update.dol_set_node dol ~subject:0 ~grant:true 2);
  check Alcotest.int "collapses to 1" 1 (Dol.transition_count dol);
  Dol.validate dol

let test_update_set_subtree () =
  let tree = Fixtures.figure2_tree () in
  let bools = Array.copy figure1_bools in
  let dol = Dol.of_bool_array bools in
  let before = Dol.transition_count dol in
  (* grant the whole subtree of e (4..11) *)
  Update.dol_set_subtree dol tree ~subject:0 ~grant:true 4;
  let expected = apply_bools_update bools ~lo:4 ~hi:11 true in
  Array.iteri
    (fun v b ->
      Alcotest.(check bool) (Printf.sprintf "node %d" v) b (Dol.accessible dol ~subject:0 v))
    expected;
  Alcotest.(check bool) "proposition 1" true (Dol.transition_count dol <= before + 2);
  Dol.validate dol

let prop_update_node_semantics_and_prop1 =
  Fixtures.qtest ~count:150 "random node updates: semantics + Proposition 1"
    QCheck2.Gen.(quad (int_bound 100_000) (int_range 1 200) (int_bound 10_000) bool)
    (fun (seed, n, pos, grant) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      let before = Dol.transition_count dol in
      let v = pos mod n in
      ignore (Update.dol_set_node dol ~subject:0 ~grant v);
      Dol.validate dol;
      let expected = apply_bools_update bools ~lo:v ~hi:v grant in
      Dol.transition_count dol <= before + 2
      && Array.for_all Fun.id
           (Array.mapi (fun u b -> Dol.accessible dol ~subject:0 u = b) expected))

let prop_update_range_semantics_and_prop1 =
  Fixtures.qtest ~count:150 "random range updates: semantics + Proposition 1"
    QCheck2.Gen.(
      quad (int_bound 100_000) (int_range 1 200) (pair (int_bound 10_000) (int_bound 10_000)) bool)
    (fun (seed, n, (a, b), grant) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      let before = Dol.transition_count dol in
      let lo = min (a mod n) (b mod n) and hi = max (a mod n) (b mod n) in
      Update.dol_set_range dol ~subject:0 ~grant ~lo ~hi;
      Dol.validate dol;
      let expected = apply_bools_update bools ~lo ~hi grant in
      Dol.transition_count dol <= before + 2
      && Array.for_all Fun.id
           (Array.mapi (fun u x -> Dol.accessible dol ~subject:0 u = x) expected))

let test_update_multi_subject_range_preserves_others () =
  let lab = two_subject_labeling () in
  let dol = Dol.of_labeling lab in
  (* deny subject 1 on range 1..7; subject 0 bits must be untouched *)
  Update.dol_set_range dol ~subject:1 ~grant:false ~lo:1 ~hi:7;
  for v = 0 to 11 do
    Alcotest.(check bool)
      (Printf.sprintf "subject 0 at %d" v)
      (Labeling.accessible lab ~subject:0 v)
      (Dol.accessible dol ~subject:0 v);
    let expected1 = if v >= 1 && v <= 7 then false else Labeling.accessible lab ~subject:1 v in
    Alcotest.(check bool) (Printf.sprintf "subject 1 at %d" v) expected1
      (Dol.accessible dol ~subject:1 v)
  done

let test_insert_delete_move () =
  let bools = [| true; true; false; false; true |] in
  let dol = Dol.of_bool_array bools in
  let sub_bools = [| false; true |] in
  let sub = Dol.of_bool_array sub_bools in
  let t_main = Dol.transition_count dol and t_sub = Dol.transition_count sub in
  (* insert at position 2 *)
  let merged = Update.dol_insert dol ~at:2 sub in
  check Alcotest.int "size" 7 (Dol.n_nodes merged);
  let expected = [| true; true; false; true; false; false; true |] in
  Array.iteri
    (fun v b ->
      Alcotest.(check bool) (Printf.sprintf "ins node %d" v) b
        (Dol.accessible merged ~subject:0 v))
    expected;
  Alcotest.(check bool) "prop 1 (insert)" true
    (Dol.transition_count merged <= t_main + t_sub + 2);
  (* delete the inserted range back out *)
  let restored = Update.dol_delete merged ~lo:2 ~hi:3 in
  check Alcotest.int "restored size" 5 (Dol.n_nodes restored);
  Array.iteri
    (fun v b ->
      Alcotest.(check bool) (Printf.sprintf "del node %d" v) b
        (Dol.accessible restored ~subject:0 v))
    bools;
  Dol.validate restored

let prop_insert_then_delete_roundtrip =
  Fixtures.qtest ~count:100 "insert/delete roundtrip on random data"
    QCheck2.Gen.(
      quad (int_bound 100_000) (int_range 2 150) (int_range 1 50) (int_bound 10_000))
    (fun (seed, n, m, posr) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n 0.5 in
      let sub_bools = Fixtures.random_bools rng m 0.5 in
      let dol = Dol.of_bool_array bools in
      let sub = Dol.of_bool_array sub_bools in
      let at = 1 + (posr mod n) in
      let t0 = Dol.transition_count dol and ts = Dol.transition_count sub in
      let merged = Update.dol_insert dol ~at sub in
      Dol.validate merged;
      let prop1 = Dol.transition_count merged <= t0 + ts + 2 in
      (* merged semantics *)
      let expected v =
        if v < at then bools.(v)
        else if v < at + m then sub_bools.(v - at)
        else bools.(v - m)
      in
      let sem_ok = ref true in
      for v = 0 to n + m - 1 do
        if Dol.accessible merged ~subject:0 v <> expected v then sem_ok := false
      done;
      let restored = Dol.of_bool_array bools in
      let deleted = Update.dol_delete merged ~lo:at ~hi:(at + m - 1) in
      Dol.validate deleted;
      let same = ref true in
      for v = 0 to n - 1 do
        if Dol.accessible deleted ~subject:0 v <> Dol.accessible restored ~subject:0 v then
          same := false
      done;
      prop1 && !sem_ok && !same)

let test_move () =
  let bools = [| true; false; false; true; true; false |] in
  let dol = Dol.of_bool_array bools in
  (* move range 1..2 to start at position 3 of the post-delete doc
     (post-delete = [t; t; t; f], insert at 3 -> [t; t; t; f; f; f]) *)
  let moved = Update.dol_move dol ~lo:1 ~hi:2 ~at:3 in
  let expected = [| true; true; true; false; false; false |] in
  Array.iteri
    (fun v b ->
      Alcotest.(check bool) (Printf.sprintf "moved %d" v) b
        (Dol.accessible moved ~subject:0 v))
    expected;
  Dol.validate moved

let test_add_remove_subject () =
  let lab = two_subject_labeling () in
  let dol = Dol.of_labeling lab in
  let entries_before = Codebook.count (Dol.codebook dol) in
  (* add a subject mirroring subject 1 *)
  let s2 = Update.add_subject dol ~like:1 () in
  check Alcotest.int "new subject index" 2 s2;
  check Alcotest.int "codebook width" 3 (Codebook.width (Dol.codebook dol));
  check Alcotest.int "entry count unchanged" entries_before
    (Codebook.count (Dol.codebook dol));
  for v = 0 to 11 do
    Alcotest.(check bool)
      (Printf.sprintf "mirrors subject 1 at %d" v)
      (Dol.accessible dol ~subject:1 v)
      (Dol.accessible dol ~subject:s2 v)
  done;
  (* remove subject 0; adjacent ACLs may become redundant *)
  Update.remove_subject dol 0;
  check Alcotest.int "narrowed" 2 (Codebook.width (Dol.codebook dol));
  (* old subject 1 is now subject 0 *)
  Alcotest.(check bool) "old s1 at node 3" true (Dol.accessible dol ~subject:0 3);
  Alcotest.(check bool) "old s1 at node 0" false (Dol.accessible dol ~subject:0 0);
  let before_compact = Dol.transition_count dol in
  Update.compact dol;
  Alcotest.(check bool) "compact only shrinks" true
    (Dol.transition_count dol <= before_compact);
  Dol.validate dol

let prop_compact_preserves_semantics =
  Fixtures.qtest ~count:80 "compact: same verdicts, never more transitions"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 150) (int_bound 500))
    (fun (seed, n, ops_seed) ->
      let rng = Prng.create seed in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      let oprng = Prng.create ops_seed in
      for _ = 1 to 10 do
        let v = Prng.int oprng n in
        ignore (Update.dol_set_node dol ~subject:0 ~grant:(Prng.bool oprng ~p:0.5) v)
      done;
      let before_count = Dol.transition_count dol in
      let before = Array.init n (fun v -> Dol.accessible dol ~subject:0 v) in
      Update.compact dol;
      Dol.validate dol;
      Dol.transition_count dol <= before_count
      && Array.for_all Fun.id
           (Array.mapi (fun v b -> Dol.accessible dol ~subject:0 v = b) before))

let test_codebook_code_bytes () =
  let cb = Codebook.create ~width:1 in
  for i = 0 to 4 do
    ignore (Codebook.intern cb (Bitset.of_list 1 (if i mod 2 = 0 then [] else [ 0 ])))
  done;
  check Alcotest.int "2 entries" 2 (Codebook.count cb);
  check Alcotest.int "1-byte codes" 1 (Codebook.code_bytes cb)

let test_codebook_of_acls () =
  let store = Acl.create ~width:3 in
  let a = Acl.intern store (Bitset.of_list 3 [ 0 ]) in
  let b = Acl.intern store (Bitset.of_list 3 [ 1; 2 ]) in
  let cb = Codebook.of_acls store [| b; a |] in
  check Alcotest.int "2 entries" 2 (Codebook.count cb);
  check Alcotest.int "own code" 0 (Codebook.intern cb (Acl.get store b));
  check Alcotest.int "own code" 1 (Codebook.intern cb (Acl.get store a));
  Alcotest.check_raises "a repeated id is refused"
    (Invalid_argument "Codebook.of_acls: repeated ACL id") (fun () ->
      ignore (Codebook.of_acls store [| a; b; a |]))

(* --- codebook construction: the renumbering equals one intern per
   transition --- *)

(* The construction loops as they interned one ACL per transition,
   kept as the reference for the renumbering builds. *)
let interning_of_labeling lab =
  let store = Labeling.store lab in
  let cb = Codebook.create ~width:(Acl.width store) in
  let trans = ref [] and prev = ref (-1) in
  for v = 0 to Labeling.size lab - 1 do
    let id = Labeling.acl_id lab v in
    if id <> !prev then begin
      trans := (v, Codebook.intern cb (Acl.get store id)) :: !trans;
      prev := id
    end
  done;
  (cb, List.rev !trans)

(* [push] of the splicing loops: a transition only where the code
   changes; [trans] is newest first. *)
let push_trans trans p c =
  match !trans with (_, c') :: _ when c' = c -> () | _ -> trans := (p, c) :: !trans

let interning_extract (dol : Dol.t) ~lo ~hi =
  let src = Dol.codebook dol in
  let cb = Codebook.create ~width:(Codebook.width src) in
  let trans = ref [] in
  push_trans trans 0 (Codebook.intern cb (Dol.acl_at dol lo));
  Array.iteri
    (fun i p ->
      if p > lo && p <= hi then
        push_trans trans (p - lo)
          (Codebook.intern cb (Codebook.get src dol.Dol.trans_code.(i))))
    dol.Dol.trans_pre;
  (cb, List.rev !trans)

let interning_insert (dol : Dol.t) ~at (sub : Dol.t) =
  let n = Dol.n_nodes dol and m = Dol.n_nodes sub in
  let cb = Dol.codebook dol in
  let trans = ref [] in
  Array.iteri (fun i p -> if p < at then push_trans trans p dol.Dol.trans_code.(i)) dol.Dol.trans_pre;
  Array.iteri
    (fun i p ->
      push_trans trans (p + at)
        (Codebook.intern cb (Codebook.get (Dol.codebook sub) sub.Dol.trans_code.(i))))
    sub.Dol.trans_pre;
  if at < n then push_trans trans (at + m) (Dol.code_at dol at);
  Array.iteri
    (fun i p -> if p >= at then push_trans trans (p + m) dol.Dol.trans_code.(i))
    dol.Dol.trans_pre;
  (cb, List.rev !trans)

let trans_of (dol : Dol.t) =
  Array.to_list (Array.map2 (fun p c -> (p, c)) dol.Dol.trans_pre dol.Dol.trans_code)

let same_entries a b =
  Codebook.count a = Codebook.count b
  && List.for_all
       (fun c -> Bitset.equal (Codebook.get a c) (Codebook.get b c))
       (List.init (Codebook.count a) Fun.id)

(* Interning each entry gives back its own code: the table holds every
   entry once, under the code the entry array gives it. *)
let interns_to_own_codes cb =
  List.for_all
    (fun c -> Codebook.intern cb (Codebook.get cb c) = c)
    (List.init (Codebook.count cb) Fun.id)

let codebook_widths = [ 1; 62; 63; 64; 255; 256; 300 ]

(* A labeling over [n] nodes drawing from [k] random ACLs, each node
   repeating its predecessor's ACL with probability 1/2 so that ACLs
   recur.  Decoy ACLs no node carries, and the pool in shuffled order,
   are interned first, so ACL ids are not in document order and some
   never start a transition. *)
let shuffled_labeling rng ~width ~n ~k =
  let store = Acl.create ~width in
  let random_acl () =
    let b = Bitset.create width in
    for i = 0 to width - 1 do
      if Prng.bool rng ~p:0.3 then Bitset.set b i true
    done;
    b
  in
  for _ = 1 to Prng.int rng 4 do
    ignore (Acl.intern store (random_acl ()))
  done;
  let pool = Array.init k (fun _ -> random_acl ()) in
  let order = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let ids = Array.make k 0 in
  Array.iter (fun i -> ids.(i) <- Acl.intern store pool.(i)) order;
  let node_acl = Array.make n ids.(0) in
  for v = 0 to n - 1 do
    node_acl.(v) <-
      (if v > 0 && Prng.bool rng ~p:0.5 then node_acl.(v - 1) else ids.(Prng.int rng k))
  done;
  Labeling.create ~store ~node_acl

let gen_codebook_case =
  QCheck2.Gen.(
    quad (int_bound 100_000) (oneofl codebook_widths) (int_range 1 200) (int_range 1 12))

let prop_of_labeling_equals_interning =
  Fixtures.qtest ~count:120 "of_labeling = one intern per transition"
    gen_codebook_case
    (fun (seed, width, n, k) ->
      let lab = shuffled_labeling (Prng.create seed) ~width ~n ~k in
      let dol = Dol.of_labeling lab in
      let cb, trans = interning_of_labeling lab in
      Dol.validate dol;
      trans_of dol = trans
      && same_entries (Dol.codebook dol) cb
      && interns_to_own_codes (Dol.codebook dol))

let prop_streaming_equals_interning =
  Fixtures.qtest ~count:120 "streaming = one intern per transition"
    gen_codebook_case
    (fun (seed, width, n, k) ->
      let lab = shuffled_labeling (Prng.create seed) ~width ~n ~k in
      let b = Dol.Streaming.create ~width in
      let emitted = ref [] in
      for v = 0 to n - 1 do
        match Dol.Streaming.push b (Labeling.acl lab v) with
        | Some c -> emitted := (v, c) :: !emitted
        | None -> ()
      done;
      let dol = Dol.Streaming.finish b in
      let cb, trans = interning_of_labeling lab in
      trans_of dol = trans
      && List.rev !emitted = trans
      && same_entries (Dol.codebook dol) cb)

(* After a subject removal the source codebook may hold duplicate
   entries: distinct source codes with equal ACLs, which the recoding
   must merge exactly as interning does. *)
let prop_extract_equals_interning =
  Fixtures.qtest ~count:120 "extract_range = one intern per transition"
    QCheck2.Gen.(pair gen_codebook_case (pair (int_bound 1000) bool))
    (fun ((seed, width, n, k), (r, narrow)) ->
      let rng = Prng.create seed in
      let dol = Dol.of_labeling (shuffled_labeling rng ~width ~n ~k) in
      if narrow && width > 1 then Update.remove_subject dol (r mod width);
      let lo = r mod n in
      let hi = lo + Prng.int rng (n - lo) in
      let sub = Update.extract_range dol ~lo ~hi in
      let cb, trans = interning_extract dol ~lo ~hi in
      Dol.validate sub;
      trans_of sub = trans && same_entries (Dol.codebook sub) cb)

let prop_insert_equals_interning =
  Fixtures.qtest ~count:120 "dol_insert = one intern per transition"
    QCheck2.Gen.(pair gen_codebook_case (pair (int_bound 1000) (int_range 1 60)))
    (fun ((seed, width, n, k), (r, m)) ->
      (* two equal main DOLs: each insert interns into its own book *)
      let lab = shuffled_labeling (Prng.create seed) ~width ~n:(n + 1) ~k in
      let main_a = Dol.of_labeling lab and main_b = Dol.of_labeling lab in
      (* the fragment's ACLs overlap the main document's *)
      let frag = shuffled_labeling (Prng.create (seed + 1)) ~width ~n:m ~k in
      let frag =
        Labeling.create ~store:(Labeling.store lab)
          ~node_acl:
            (Array.init m (fun v ->
                 if v mod 3 = 0 then Labeling.acl_id lab (v mod (n + 1))
                 else Acl.intern (Labeling.store lab) (Labeling.acl frag v)))
      in
      let sub = Dol.of_labeling frag in
      let at = 1 + (r mod (n + 1)) in
      let got = Update.dol_insert main_a ~at sub in
      let cb, trans = interning_insert main_b ~at sub in
      Dol.validate got;
      trans_of got = trans && same_entries (Dol.codebook got) cb)

(* --- the flat codebook against a list-of-bitsets model --- *)

(* One of 12 ACL patterns over [width] subjects: few enough that
   interning meets equal entries often. *)
let pattern width k =
  let b = Bitset.create width in
  for i = 0 to width - 1 do
    if (((i + 1) * (k + 3)) + (i * i * k)) mod 5 < 2 then Bitset.set b i true
  done;
  b

type cb_op =
  | Intern of int  (** a pattern *)
  | With_bit of int * int * bool  (** code and subject, each taken modulo *)
  | Add of int option  (** [like], modulo the width *)
  | Remove of int  (** modulo the width *)
  | Reload  (** a [Persist] round trip *)
  | Copy

let gen_cb_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun k -> Intern k) (int_bound 11));
        (3, map3 (fun c s b -> With_bit (c, s, b)) nat nat bool);
        (1, map (fun l -> Add l) (opt nat));
        (1, map (fun s -> Remove s) nat);
        (1, pure Reload);
        (1, pure Copy);
      ])

(* The model: entries in code order; interning returns the lowest
   equal entry's code. *)
let model_intern m bits =
  let rec go c = function
    | [] ->
        m := !m @ [ bits ];
        c
    | e :: rest -> if Bitset.equal e bits then c else go (c + 1) rest
  in
  go 0 !m

let model_distinct m = List.length (List.sort_uniq Bitset.compare m)

(* A DOL whose transition [c] carries code [c], to push a book through
   [Persist]. *)
let dol_over cb =
  let k = Codebook.count cb in
  { Dol.codebook = cb; trans_pre = Array.init k Fun.id; trans_code = Array.init k Fun.id;
    n_nodes = k; generation = 0 }

let model_agrees cb width m =
  let m = Array.of_list m in
  Codebook.width cb = width
  && Codebook.count cb = Array.length m
  && Codebook.redundant_entries cb = Array.length m - model_distinct (Array.to_list m)
  && Array.for_all Fun.id
       (Array.mapi
          (fun c e ->
            Bitset.equal (Codebook.get cb c) e
            && List.for_all
                 (fun s -> Codebook.grants cb c s = Bitset.get e s)
                 (List.init width Fun.id))
          m)

let prop_codebook_model =
  Fixtures.qtest ~count:200 "codebook = list-of-bitsets model"
    QCheck2.Gen.(
      triple (oneofl [ 0; 1; 5; 8; 9; 63; 64; 65; 130 ]) (list_size (int_bound 6) (int_bound 11))
        (list_size (int_range 1 40) gen_cb_op))
    (fun (width0, init, ops) ->
      let width = ref width0 in
      let m = ref (List.map (pattern width0) init) in
      (* the initial entries verbatim, duplicates included *)
      let cb = ref (Codebook.of_entries ~width:width0 (Array.of_list !m)) in
      List.for_all
        (fun op ->
          let same_code =
            match op with
            | Intern k ->
                let bits = pattern !width k in
                Codebook.intern !cb bits = model_intern m bits
            | With_bit (c, s, b) ->
                let n = List.length !m in
                n = 0 || !width = 0
                ||
                let c = c mod n and s = s mod !width in
                let e = List.nth !m c in
                let want = if Bitset.get e s = b then c else model_intern m (Bitset.with_bit e s b) in
                Codebook.with_bit !cb c s b = want
            | Add like ->
                let like = if !width = 0 then None else Option.map (fun l -> l mod !width) like in
                let w = !width in
                m :=
                  List.map
                    (fun e ->
                      let e' = Bitset.resize e (w + 1) in
                      match like with
                      | Some l when Bitset.get e l -> Bitset.with_bit e' w true
                      | _ -> e')
                    !m;
                width := w + 1;
                Codebook.add_subject !cb ?like () = w
            | Remove s ->
                !width = 0
                ||
                let s = s mod !width in
                m := List.map (fun e -> Bitset.remove_bit e s) !m;
                decr width;
                Codebook.remove_subject !cb s;
                true
            | Reload ->
                Codebook.count !cb = 0
                ||
                let img = Persist.to_bytes (dol_over !cb) in
                cb := Dol.codebook (Persist.of_bytes img);
                Codebook.indexed_entries !cb = 0
                && Persist.to_bytes (dol_over !cb) = img
            | Copy ->
                cb := Codebook.copy !cb;
                Codebook.indexed_entries !cb = 0
          in
          same_code && model_agrees !cb !width !m)
        ops)

(* The codes an eagerly indexed book gives [queries] in turn, starting
   from [entries]: the lowest equal entry, or a new one. *)
let eager_codes entries queries =
  let tbl = Hashtbl.create 64 and count = ref (Array.length entries) in
  Array.iteri
    (fun c e ->
      let key = Bitset.to_string e in
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key c)
    entries;
  List.map
    (fun q ->
      let key = Bitset.to_string q in
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None ->
          Hashtbl.add tbl key !count;
          incr count;
          !count - 1)
    queries

let prop_lazy_index_equals_eager =
  Fixtures.qtest ~count:120 "first intern after of_labeling or a load = eager index"
    QCheck2.Gen.(pair gen_codebook_case (pair (int_bound 1000) bool))
    (fun ((seed, width, n, k), (r, narrow)) ->
      let rng = Prng.create seed in
      let dol = Dol.of_labeling (shuffled_labeling rng ~width ~n ~k) in
      (* a removal leaves duplicate entries: the lowest code must win *)
      if narrow && width > 1 then Update.remove_subject dol (r mod width);
      let cb = Dol.codebook dol in
      let w = Codebook.width cb in
      let entries = Array.init (Codebook.count cb) (Codebook.get cb) in
      (* existing entries, and fresh ACLs interned twice *)
      let queries =
        List.init 30 (fun i ->
            if i mod 3 = 0 then pattern w (Prng.int rng 12)
            else entries.(Prng.int rng (Array.length entries)))
      in
      let want = eager_codes entries queries in
      let loaded = Dol.codebook (Persist.of_bytes (Persist.to_bytes dol)) in
      Codebook.indexed_entries cb = 0
      && Codebook.indexed_entries loaded = 0
      && List.map (Codebook.intern loaded) queries = want
      && List.map (Codebook.intern cb) queries = want
      && Codebook.indexed_entries cb > 0)

(* A reader domain checks [grants] and [get] for the codes published to
   it while the writer interns through several matrix growths. *)
let test_codebook_reader_during_growth () =
  let width = 70 and base = 64 in
  let acl c =
    let b = Bitset.create width in
    for s = 0 to width - 1 do
      (* the low 16 bits spell [c], so the entries are distinct *)
      if (if s < 16 then (c lsr s) land 1 = 1 else ((c * 7) + (s * 13)) mod 11 < 4) then
        Bitset.set b s true
    done;
    b
  in
  let cb = Codebook.of_entries ~width (Array.init base acl) in
  let total = base * 16 (* four doublings past [base] *) in
  let published = Atomic.make base and wrong = Atomic.make 0 and checks = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let rng = Prng.create 5 in
        let expected = Array.init total acl in
        let finished = ref false in
        while not !finished do
          let p = Atomic.get published in
          if p >= total then finished := true;
          for _ = 1 to 64 do
            let c = Prng.int rng p and s = Prng.int rng width in
            if Codebook.grants cb c s <> Bitset.get expected.(c) s then Atomic.incr wrong;
            Atomic.incr checks
          done;
          let c = Prng.int rng p in
          if not (Bitset.equal (Codebook.get cb c) expected.(c)) then Atomic.incr wrong
        done)
  in
  for c = base to total - 1 do
    let got = Codebook.intern cb (acl c) in
    if got <> c then Atomic.incr wrong;
    Atomic.set published (c + 1)
  done;
  Domain.join reader;
  check Alcotest.int "entries" total (Codebook.count cb);
  check Alcotest.bool "reader ran" true (Atomic.get checks > 0);
  check Alcotest.int "wrong verdicts" 0 (Atomic.get wrong)

let suite =
  [
    Alcotest.test_case "figure 1(a) transitions" `Quick test_single_subject_transitions;
    Alcotest.test_case "lookup all nodes" `Quick test_lookup_all_nodes;
    Alcotest.test_case "root always transition" `Quick test_root_always_transition;
    Alcotest.test_case "figure 1(c) codebook" `Quick test_multi_subject_codebook;
    Alcotest.test_case "streaming = batch" `Quick test_streaming_equals_batch;
    prop_dol_agrees_with_labeling;
    prop_transition_count_is_boundaries;
    Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
    Alcotest.test_case "update: set node" `Quick test_update_set_node;
    Alcotest.test_case "update: set node no-op" `Quick test_update_set_node_noop;
    Alcotest.test_case "update: set node merges" `Quick test_update_set_node_merges;
    Alcotest.test_case "update: set subtree" `Quick test_update_set_subtree;
    prop_update_node_semantics_and_prop1;
    prop_update_range_semantics_and_prop1;
    Alcotest.test_case "update: multi-subject range" `Quick
      test_update_multi_subject_range_preserves_others;
    Alcotest.test_case "update: insert/delete" `Quick test_insert_delete_move;
    prop_insert_then_delete_roundtrip;
    Alcotest.test_case "update: move" `Quick test_move;
    Alcotest.test_case "update: add/remove subject" `Quick test_add_remove_subject;
    prop_compact_preserves_semantics;
    Alcotest.test_case "codebook code bytes" `Quick test_codebook_code_bytes;
    Alcotest.test_case "codebook of_acls" `Quick test_codebook_of_acls;
    prop_of_labeling_equals_interning;
    prop_streaming_equals_interning;
    prop_extract_equals_interning;
    prop_insert_equals_interning;
    prop_codebook_model;
    prop_lazy_index_equals_eager;
    Alcotest.test_case "codebook reader during matrix growth" `Quick
      test_codebook_reader_during_growth;
  ]
