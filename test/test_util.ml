(** Tests for [Dolx_util]: PRNG, bitsets, varints, LRU, binary search,
    int vectors, stats. *)

module Prng = Dolx_util.Prng
module Bitset = Dolx_util.Bitset
module Varint = Dolx_util.Varint
module Binsearch = Dolx_util.Binsearch
module Int_vec = Dolx_util.Int_vec
module Stats = Dolx_util.Stats

let check = Alcotest.check

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done;
  for _ = 1 to 1000 do
    let x = Prng.int_in rng 3 9 in
    Alcotest.(check bool) "in inclusive range" true (x >= 3 && x <= 9)
  done

let test_prng_split_independent () =
  let rng = Prng.create 99 in
  let s = Prng.split rng in
  (* draws from the split stream must not change the parent's stream
     relative to a reference run *)
  let reference =
    let r = Prng.create 99 in
    ignore (Prng.split r);
    List.init 10 (fun _ -> Prng.int r 1_000_000)
  in
  ignore (List.init 10 (fun _ -> Prng.int s 1_000_000));
  let got = List.init 10 (fun _ -> Prng.int rng 1_000_000) in
  check Fixtures.int_list "parent unaffected by child draws" reference got

let test_prng_float_range () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_sample () =
  let rng = Prng.create 17 in
  let s = Prng.sample rng 100 10 in
  check Alcotest.int "ten distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 100)) s;
  check Fixtures.int_list "full sample is identity" (List.init 5 Fun.id)
    (Prng.sample rng 5 5)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Fixtures.int_list "permutation" (List.init 50 Fun.id) (Array.to_list sorted)

let test_prng_bool_bias () =
  let rng = Prng.create 8 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool rng ~p:0.3 then incr hits
  done;
  let ratio = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "close to 0.3" true (ratio > 0.27 && ratio < 0.33)

let test_zipf () =
  let rng = Prng.create 2 in
  let sampler = Prng.zipf_sampler ~n:10 ~s:1.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = sampler rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 most frequent" true (counts.(0) > counts.(9))

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "initially clear" false (Bitset.get b 63);
  Bitset.set b 63 true;
  Bitset.set b 0 true;
  Bitset.set b 99 true;
  Alcotest.(check bool) "bit 63" true (Bitset.get b 63);
  Alcotest.(check bool) "bit 0" true (Bitset.get b 0);
  Alcotest.(check bool) "bit 99" true (Bitset.get b 99);
  check Alcotest.int "popcount" 3 (Bitset.popcount b);
  Bitset.set b 63 false;
  check Alcotest.int "popcount after clear" 2 (Bitset.popcount b)

let test_bitset_value_semantics () =
  let a = Bitset.of_list 70 [ 1; 5; 64 ] in
  let b = Bitset.of_list 70 [ 1; 5; 64 ] in
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  check Alcotest.int "same hash" (Bitset.hash a) (Bitset.hash b);
  let c = Bitset.with_bit a 2 true in
  Alcotest.(check bool) "with_bit fresh" false (Bitset.equal a c);
  Alcotest.(check bool) "original untouched" false (Bitset.get a 2)

let test_bitset_setops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] and b = Bitset.of_list 10 [ 3; 4 ] in
  check Fixtures.int_list "union" [ 1; 2; 3; 4 ] (Bitset.to_list (Bitset.union a b));
  check Fixtures.int_list "inter" [ 3 ] (Bitset.to_list (Bitset.inter a b));
  check Fixtures.int_list "diff" [ 1; 2 ] (Bitset.to_list (Bitset.diff a b))

let test_bitset_resize_remove () =
  let a = Bitset.of_list 5 [ 0; 4 ] in
  let b = Bitset.resize a 8 in
  check Alcotest.int "resized width" 8 (Bitset.width b);
  check Fixtures.int_list "bits preserved" [ 0; 4 ] (Bitset.to_list b);
  let c = Bitset.remove_bit (Bitset.of_list 5 [ 0; 2; 4 ]) 2 in
  check Alcotest.int "narrowed" 4 (Bitset.width c);
  check Fixtures.int_list "bits shifted" [ 0; 3 ] (Bitset.to_list c)

let test_bitset_full_empty () =
  let f = Bitset.full 65 in
  check Alcotest.int "full popcount" 65 (Bitset.popcount f);
  Alcotest.(check bool) "not empty" false (Bitset.is_empty f);
  Alcotest.(check bool) "empty" true (Bitset.is_empty (Bitset.create 65));
  check Alcotest.int "storage bytes" 9 (Bitset.storage_bytes f)

let prop_bitset_roundtrip =
  Fixtures.qtest "bitset of_list/to_list roundtrip"
    QCheck2.Gen.(list_size (int_bound 20) (int_bound 99))
    (fun l ->
      let l = List.sort_uniq compare l in
      Bitset.to_list (Bitset.of_list 100 l) = l)

(* --- Varint --- *)

let prop_varint_roundtrip =
  Fixtures.qtest "varint roundtrip" QCheck2.Gen.(map abs int) (fun x ->
      let buf = Bytes.create Varint.max_len in
      let after = Varint.write buf 0 x in
      let y, after' = Varint.read buf 0 in
      y = x && after = after' && after = Varint.encoded_length x)

let test_varint_lengths () =
  check Alcotest.int "1 byte" 1 (Varint.encoded_length 127);
  check Alcotest.int "2 bytes" 2 (Varint.encoded_length 128);
  check Alcotest.int "3 bytes" 3 (Varint.encoded_length (1 lsl 14))

(* --- Binary search --- *)

let prop_predecessor =
  Fixtures.qtest "predecessor agrees with linear scan"
    QCheck2.Gen.(pair (list_size (int_bound 30) (int_bound 100)) (int_bound 110))
    (fun (l, x) ->
      let keys = Array.of_list (List.sort_uniq compare l) in
      let expected =
        let best = ref None in
        Array.iteri (fun i k -> if k <= x then best := Some i) keys;
        !best
      in
      Binsearch.predecessor keys x = expected)

let prop_successor =
  Fixtures.qtest "successor agrees with linear scan"
    QCheck2.Gen.(pair (list_size (int_bound 30) (int_bound 100)) (int_bound 110))
    (fun (l, x) ->
      let keys = Array.of_list (List.sort_uniq compare l) in
      let expected =
        let best = ref None in
        for i = Array.length keys - 1 downto 0 do
          if keys.(i) >= x then best := Some i
        done;
        !best
      in
      Binsearch.successor keys x = expected)

let test_binsearch_find () =
  let keys = [| 2; 4; 6; 8 |] in
  check Alcotest.(option int) "found" (Some 2) (Binsearch.find keys 6);
  check Alcotest.(option int) "absent" None (Binsearch.find keys 5)

(* --- Int_vec --- *)

let test_int_vec () =
  let v = Int_vec.create ~capacity:1 () in
  for i = 0 to 999 do
    Int_vec.push v i
  done;
  Alcotest.(check int) "length" 1000 (Int_vec.length v);
  Alcotest.(check int) "get" 500 (Int_vec.get v 500);
  Int_vec.set v 500 (-1);
  Alcotest.(check int) "set" (-1) (Int_vec.get v 500);
  Alcotest.(check int) "last" 999 (Int_vec.last v);
  Alcotest.(check int) "pop" 999 (Int_vec.pop v);
  Alcotest.(check int) "length after pop" 999 (Int_vec.length v);
  let sum = Int_vec.fold ( + ) 0 v in
  Alcotest.(check bool) "fold" true (sum = (998 * 999 / 2) - 1 - 500 + 0)

let test_int_vec_to_array () =
  let v = Int_vec.of_array [| 3; 1; 4 |] in
  check Fixtures.int_list "roundtrip" [ 3; 1; 4 ] (Array.to_list (Int_vec.to_array v))

(* --- Stats --- *)

let test_stats () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "ratio" 0.5 (Stats.ratio 1.0 2.0);
  Alcotest.(check bool) "ratio by zero is nan" true (Float.is_nan (Stats.ratio 1.0 0.0))

let test_percentile_edges () =
  check (Alcotest.float 1e-9) "p=0 is min" 1.0
    (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "p=100 is max" 3.0
    (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "single element, any p" 7.0
    (Stats.percentile 37.5 [ 7.0 ]);
  check (Alcotest.float 1e-9) "median of single" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.(check bool) "empty list is nan" true
    (Float.is_nan (Stats.percentile 50.0 []));
  (* NaN samples must be dropped, not poison the nearest-rank sort — the
     polymorphic-compare sort gave order-dependent garbage here *)
  check (Alcotest.float 1e-9) "nan samples dropped" 2.0
    (Stats.percentile 50.0 [ nan; 3.0; nan; 1.0; 2.0; nan ]);
  check (Alcotest.float 1e-9) "infinities dropped too" 2.0
    (Stats.percentile 100.0 [ infinity; 2.0; neg_infinity; 1.0 ]);
  Alcotest.(check bool) "all-nan is nan" true
    (Float.is_nan (Stats.percentile 50.0 [ nan; nan ]));
  Alcotest.check_raises "p out of range fails loudly"
    (Invalid_argument "Stats.percentile: p out of [0,100]") (fun () ->
      ignore (Stats.percentile 101.0 [ 1.0 ]));
  Alcotest.check_raises "nan p fails loudly"
    (Invalid_argument "Stats.percentile: p out of [0,100]") (fun () ->
      ignore (Stats.percentile nan [ 1.0 ]))

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng sample" `Quick test_prng_sample;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng bool bias" `Quick test_prng_bool_bias;
    Alcotest.test_case "zipf sampler" `Quick test_zipf;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset value semantics" `Quick test_bitset_value_semantics;
    Alcotest.test_case "bitset set ops" `Quick test_bitset_setops;
    Alcotest.test_case "bitset resize/remove" `Quick test_bitset_resize_remove;
    Alcotest.test_case "bitset full/empty" `Quick test_bitset_full_empty;
    prop_bitset_roundtrip;
    prop_varint_roundtrip;
    Alcotest.test_case "varint lengths" `Quick test_varint_lengths;
    prop_predecessor;
    prop_successor;
    Alcotest.test_case "binsearch find" `Quick test_binsearch_find;
    Alcotest.test_case "int_vec" `Quick test_int_vec;
    Alcotest.test_case "int_vec to_array" `Quick test_int_vec_to_array;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
  ]
