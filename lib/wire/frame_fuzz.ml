(** Seeded property checks for the frame codec — shared by the
    [fuzz_diff.exe --frames] fuzzer, the CI canary and the corpus
    replay in [dune runtest].

    Each seed derives a small batch of random frames (hostile strings,
    edge-case ints) and checks, per seed:
    - encode → decode round-trips every frame exactly;
    - short reads: any re-chunking of the byte stream yields the same
      frames;
    - torn prefixes: a stream cut at any point yields exactly the
      frames fully contained before the cut, then [None] — the decoder
      never reads past the cut and never misparses a partial frame;
    - hostile input: random garbage and single-byte mutations of valid
      frames either decode or raise {!Frame.Corrupt} — never any other
      exception, never a runaway allocation (the length prefix is
      rejected before payload allocation);
    - the length-prefix bound: zero, negative (sign bit set) and
      oversized prefixes are rejected with [Corrupt]. *)

module Prng = Dolx_util.Prng
module Engine = Dolx_nok.Engine

let gen_string g =
  let n = Prng.int g 13 in
  String.init n (fun _ -> Char.chr (Prng.int g 256))

(* Edge-heavy non-negative ints: varint boundaries and large values. *)
let gen_int g =
  match Prng.int g 6 with
  | 0 -> 0
  | 1 -> Prng.int g 128
  | 2 -> 127 + Prng.int g 3
  | 3 -> 16383 + Prng.int g 3
  | 4 -> Prng.int g 1_000_000
  | _ -> Prng.bits g

let gen_semantics g =
  match Prng.int g 3 with
  | 0 -> Engine.Insecure
  | 1 -> Engine.Secure (gen_int g)
  | _ -> Engine.Secure_path (gen_int g)

let gen_frame g =
  match Prng.int g 12 with
  | 0 -> Frame.Request (Frame.Hello { client = gen_string g })
  | 1 ->
      Frame.Request
        (Frame.Submit
           {
             id = gen_int g;
             tenant = gen_string g;
             xpath = gen_string g;
             semantics = gen_semantics g;
           })
  | 2 -> Frame.Request (Frame.Next { id = gen_int g })
  | 3 -> Frame.Request (Frame.Close { id = gen_int g })
  | 4 -> Frame.Request (if Prng.bool g ~p:0.5 then Frame.Stats else Frame.Bye)
  | 5 -> Frame.Response (Frame.Welcome { server = gen_string g })
  | 6 -> Frame.Response (Frame.Accepted { id = gen_int g })
  | (7 | 8) as k ->
      (* over-weighted: multi-answer chunks are where off-by-ones live;
         the end-marked [Last] takes half of them *)
      let n = Prng.int g 21 in
      let id = gen_int g in
      let answers = List.init n (fun _ -> gen_int g) in
      Frame.Response
        (if k = 7 then Frame.Chunk { id; answers } else Frame.Last { id; answers })
  | 9 -> Frame.Response (Frame.End { id = gen_int g })
  | 10 ->
      Frame.Response (Frame.Error { id = gen_int g; message = gen_string g })
  | _ ->
      let n = Prng.int g 6 in
      Frame.Response
        (Frame.Stats_reply
           (List.init n (fun _ -> (gen_string g, gen_int g))))

let concat_bytes pieces =
  let total = List.fold_left (fun n b -> n + Bytes.length b) 0 pieces in
  let out = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun b ->
      Bytes.blit b 0 out !off (Bytes.length b);
      off := !off + Bytes.length b)
    pieces;
  out

(* Decode everything [stream] holds; returns the frames, or an error
   description on any exception other than the expected protocol. *)
let decode_all stream =
  let d = Frame.decoder () in
  Frame.feed d stream 0 (Bytes.length stream);
  let rec go acc =
    match Frame.next d with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let describe_frames frames =
  String.concat "; "
    (List.map (fun f -> Format.asprintf "%a" Frame.pp f) frames)

(* Feed [stream] in chunks cut at [cuts] (sorted positions), pulling
   after every feed; returns all frames decoded. *)
let decode_chunked stream cuts =
  let d = Frame.decoder () in
  let acc = ref [] in
  let pull () =
    let rec go () =
      match Frame.next d with
      | Some f ->
          acc := f :: !acc;
          go ()
      | None -> ()
    in
    go ()
  in
  let prev = ref 0 in
  List.iter
    (fun cut ->
      Frame.feed d stream !prev (cut - !prev);
      prev := cut;
      pull ())
    (cuts @ [ Bytes.length stream ]);
  List.rev !acc

let check_seed seed =
  let g = Prng.create (0x51CE + seed) in
  let frames = List.init (1 + Prng.int g 4) (fun _ -> gen_frame g) in
  let encoded = List.map Frame.to_bytes frames in
  let stream = concat_bytes encoded in
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  (* 1. whole-stream round trip *)
  match decode_all stream with
  | exception e ->
      fail "round-trip raised %s on [%s]" (Printexc.to_string e)
        (describe_frames frames)
  | got when not (List.equal Frame.equal got frames) ->
      fail "round-trip mismatch: sent [%s], got [%s]" (describe_frames frames)
        (describe_frames got)
  | _ -> (
      (* 2. short reads: random re-chunking decodes identically *)
      let n = Bytes.length stream in
      let cuts =
        List.init (Prng.int g 8) (fun _ -> Prng.int g (n + 1))
        |> List.sort_uniq compare
      in
      match decode_chunked stream cuts with
      | exception e -> fail "chunked decode raised %s" (Printexc.to_string e)
      | got when not (List.equal Frame.equal got frames) ->
          fail "chunked decode mismatch at cuts [%s]"
            (String.concat "," (List.map string_of_int cuts))
      | _ -> (
          (* 3. torn prefix: only fully-contained frames come out; the
             decoder never raises and never invents a frame *)
          let cut = Prng.int g (n + 1) in
          let expected_before_cut =
            let rec go off frames sizes =
              match (frames, sizes) with
              | f :: fs, sz :: rest when off + sz <= cut ->
                  f :: go (off + sz) fs rest
              | _ -> []
            in
            go 0 frames (List.map Bytes.length encoded)
          in
          match decode_chunked stream [ cut ] with
          | exception e ->
              fail "torn prefix at %d raised %s" cut (Printexc.to_string e)
          | _ -> (
              let d = Frame.decoder () in
              Frame.feed d stream 0 cut;
              let rec drain acc =
                match Frame.next d with
                | Some f -> drain (f :: acc)
                | None -> List.rev acc
              in
              match drain [] with
              | exception e ->
                  fail "torn prefix at %d raised %s" cut (Printexc.to_string e)
              | got when not (List.equal Frame.equal got expected_before_cut)
                ->
                  fail
                    "torn prefix at %d yielded %d frames, expected %d \
                     (decoder read past the cut?)"
                    cut (List.length got)
                    (List.length expected_before_cut)
              | _ -> (
                  (* 4. hostile input: mutations and garbage must decode
                     or raise Corrupt — nothing else *)
                  let hostile =
                    if n > 0 && Prng.bool g ~p:0.5 then begin
                      let b = Bytes.copy stream in
                      let i = Prng.int g n in
                      Bytes.set b i
                        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int g 8)));
                      b
                    end
                    else
                      Bytes.init (Prng.int g 64) (fun _ ->
                          Char.chr (Prng.int g 256))
                  in
                  match decode_all hostile with
                  | _ -> None
                  | exception Frame.Corrupt _ -> None
                  | exception e ->
                      fail "hostile input raised %s (want Corrupt only)"
                        (Printexc.to_string e)))))

(* The length-prefix bound is deterministic; checked once per run, not
   per seed. *)
let check_length_bounds () =
  let header v =
    let b = Bytes.create 8 in
    Bytes.set_int32_be b 0 v;
    b
  in
  let expect_corrupt name v =
    let d = Frame.decoder () in
    let b = header v in
    Frame.feed d b 0 (Bytes.length b);
    match Frame.next d with
    | exception Frame.Corrupt _ -> None
    | _ -> Some (Printf.sprintf "%s length prefix not rejected" name)
  in
  match expect_corrupt "zero" 0l with
  | Some e -> Some e
  | None -> (
      match expect_corrupt "negative" 0xFFFFFFFFl with
      | Some e -> Some e
      | None ->
          expect_corrupt "oversized"
            (Int32.of_int (Frame.default_max_frame + 1)))
