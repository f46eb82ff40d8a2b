(** The wire protocol: frame codec, fault-injected connections, and the
    socket server end-to-end.

    The codec must round-trip every frame type, reassemble short reads,
    never read past a torn-frame cut, and reject hostile length
    prefixes before allocating.  The server must hand two real
    socket clients byte-identical answers to the in-process engine, and
    a client that vanishes mid-stream must have its reader epoch pin
    released — the acceptance property of the wire layer. *)

module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Disk = Dolx_storage.Disk
module Epoch = Dolx_storage.Epoch
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve
module Frame = Dolx_wire.Frame
module Frame_fuzz = Dolx_wire.Frame_fuzz
module Conn = Dolx_wire.Conn
module Server = Dolx_wire.Server
module Client = Dolx_wire.Client
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Query_mix = Dolx_workload.Query_mix

let check = Alcotest.check

let frame_t = Alcotest.testable Frame.pp Frame.equal

(* --- fixtures --- *)

let make_store ?(nodes = 2500) ?(subjects = 6) seed =
  let tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi tree ~seed:(seed + 1) ~n_subjects:subjects ()
  in
  let dol = Dol.of_labeling labeling in
  let store = Store.create ~page_size:1024 ~pool_capacity:16 tree dol in
  (store, Tag_index.build tree)

let pin_count store = Epoch.pin_count (Disk.epoch (Store.disk store))

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

let queries ~subjects ~seed =
  let mix = Query_mix.generate ~n:8 ~subjects ~seed () in
  List.map (fun e -> (e.Query_mix.xpath, semantics e.Query_mix.semantics)) mix
  @ [
      ("//item", Engine.Insecure);
      ("//item/name", Engine.Secure 1);
      ("//region//item[name]", Engine.Secure_path 2);
    ]

let sock_counter = ref 0

let sock_path () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dolxw-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Poll [f] until it returns true or ~2s elapse. *)
let eventually f =
  let rec go n = f () || (n > 0 && (Unix.sleepf 0.02; go (n - 1))) in
  go 100

(* --- frame codec --- *)

let all_frames =
  [
    Frame.Request (Frame.Hello { client = "" });
    Frame.Request (Frame.Hello { client = "cli\xffent\x00" });
    Frame.Request
      (Frame.Submit
         { id = 0; tenant = "t"; xpath = "//item"; semantics = Engine.Insecure });
    Frame.Request
      (Frame.Submit
         {
           id = max_int / 2;
           tenant = "tenant9";
           xpath = "//region//item[name]";
           semantics = Engine.Secure_path 12345;
         });
    Frame.Request
      (Frame.Submit
         { id = 1; tenant = ""; xpath = ""; semantics = Engine.Secure 0 });
    Frame.Request (Frame.Next { id = 7 });
    Frame.Request (Frame.Close { id = 128 });
    Frame.Request Frame.Stats;
    Frame.Request Frame.Bye;
    Frame.Response (Frame.Welcome { server = "dolx" });
    Frame.Response (Frame.Accepted { id = 16384 });
    Frame.Response (Frame.Chunk { id = 3; answers = [] });
    Frame.Response (Frame.Chunk { id = 3; answers = [ 42 ] });
    Frame.Response
      (Frame.Chunk { id = 9; answers = [ 0; 1; 127; 128; 16383; 16384; 99 ] });
    Frame.Response (Frame.End { id = 0 });
    Frame.Response (Frame.Error { id = 5; message = "worker: oh no" });
    Frame.Response (Frame.Overloaded { id = 77 });
    Frame.Response (Frame.Stats_reply []);
    Frame.Response
      (Frame.Stats_reply [ ("served", 12); ("pinned_readers", 0) ]);
    Frame.Response (Frame.Last { id = 4; answers = [] });
    Frame.Response
      (Frame.Last { id = 300; answers = [ 5; 128; 16384; 2; 0 ] });
  ]

let decode_all stream =
  let d = Frame.decoder () in
  Frame.feed d stream 0 (Bytes.length stream);
  let rec go acc =
    match Frame.next d with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let concat pieces =
  Bytes.concat Bytes.empty pieces

let test_round_trip () =
  List.iter
    (fun f ->
      let b = Frame.to_bytes f in
      check (Alcotest.list frame_t) "single frame" [ f ] (decode_all b))
    all_frames;
  (* the whole batch through one decoder, one feed *)
  let stream = concat (List.map Frame.to_bytes all_frames) in
  check (Alcotest.list frame_t) "batched frames" all_frames (decode_all stream)

let test_short_reads () =
  let stream = concat (List.map Frame.to_bytes all_frames) in
  let d = Frame.decoder () in
  let got = ref [] in
  for i = 0 to Bytes.length stream - 1 do
    Frame.feed d stream i 1;
    let rec pull () =
      match Frame.next d with
      | Some f ->
          got := f :: !got;
          pull ()
      | None -> ()
    in
    pull ()
  done;
  check (Alcotest.list frame_t) "byte-at-a-time" all_frames (List.rev !got)

let test_torn_prefixes () =
  (* every cut position: decode exactly the fully-contained frames,
     never raise, never invent a frame from the partial tail *)
  let encoded = List.map Frame.to_bytes all_frames in
  let stream = concat encoded in
  let sizes = List.map Bytes.length encoded in
  for cut = 0 to Bytes.length stream do
    let expected =
      let rec go off fs szs =
        match (fs, szs) with
        | f :: fs', sz :: szs' when off + sz <= cut -> f :: go (off + sz) fs' szs'
        | _ -> []
      in
      go 0 all_frames sizes
    in
    let d = Frame.decoder () in
    Frame.feed d stream 0 cut;
    let rec drain acc =
      match Frame.next d with Some f -> drain (f :: acc) | None -> List.rev acc
    in
    check (Alcotest.list frame_t)
      (Printf.sprintf "cut at %d" cut)
      expected (drain [])
  done

let test_length_bounds () =
  (match Frame_fuzz.check_length_bounds () with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  (* an oversized length prefix must be rejected without allocating the
     claimed size: a decoder with a tiny max_frame raises Corrupt on a
     4 GiB claim fed as just 8 bytes *)
  let d = Frame.decoder ~max_frame:(1 lsl 16) () in
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 0x7FFFFFFFl;
  Frame.feed d b 0 8;
  (match Frame.next d with
  | exception Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized prefix accepted");
  (* ... and the decoder stays poisoned afterwards *)
  (match Frame.next d with
  | exception Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "poisoned decoder kept going");
  (* encoding oversized frames is refused client-side *)
  match
    Frame.to_bytes ~max_frame:64
      (Frame.Request
         (Frame.Hello { client = String.make 100 'x' }))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized encode accepted"

let test_corrupt_payload () =
  (* unknown tag *)
  let b = Bytes.create 5 in
  Bytes.set_int32_be b 0 1l;
  Bytes.set b 4 '\x7e';
  (match decode_all b with
  | exception Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "unknown tag accepted");
  (* trailing garbage inside the declared body *)
  let good = Frame.to_bytes (Frame.Request (Frame.Next { id = 1 })) in
  let n = Bytes.length good in
  let padded = Bytes.create (n + 1) in
  Bytes.blit good 0 padded 0 n;
  Bytes.set_int32_be padded 0 (Int32.of_int (n + 1 - 4));
  (match decode_all padded with
  | exception Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted");
  (* a string length claiming max_int must hit the bounds check as
     Corrupt, not wrap [pos + n] negative and escape as Invalid_argument
     from Bytes.sub (regression: hostile ~15-byte hello frame) *)
  let varint = Bytes.create Dolx_util.Varint.max_len in
  let vn = Dolx_util.Varint.write varint 0 max_int in
  let hostile = Bytes.create (4 + 1 + vn) in
  Bytes.set_int32_be hostile 0 (Int32.of_int (1 + vn));
  Bytes.set hostile 4 '\x01' (* hello *);
  Bytes.blit varint 0 hostile 5 vn;
  match decode_all hostile with
  | exception Frame.Corrupt _ -> ()
  | exception e ->
      Alcotest.fail
        ("max_int string length escaped as " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "max_int string length accepted"

let test_codec_properties () =
  for seed = 0 to 249 do
    match Frame_fuzz.check_seed seed with
    | None -> ()
    | Some msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
  done

(* Replay the checked-in corpus: regressions caught by the frame fuzzer
   stay fixed.  Seeds live one per line; '#' starts a comment. *)
let test_corpus_replay () =
  let dir = "corpus" in
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".wseed")
      |> List.sort compare
    else []
  in
  check Alcotest.bool "corpus present" true (files <> []);
  List.iter
    (fun file ->
      let ic = open_in (Filename.concat dir file) in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              let line = String.trim (input_line ic) in
              if line <> "" && line.[0] <> '#' then
                let seed = int_of_string line in
                match Frame_fuzz.check_seed seed with
                | None -> ()
                | Some msg ->
                    Alcotest.fail
                      (Printf.sprintf "%s seed %d: %s" file seed msg)
            done
          with End_of_file -> ()))
    files

let test_planted_bug_canary () =
  (* the frame canary must be visible to the property checker: with the
     bug armed, some seed in a small window must fail *)
  let was = !Frame.planted_bug in
  Frame.planted_bug := true;
  Fun.protect
    ~finally:(fun () -> Frame.planted_bug := was)
    (fun () ->
      let caught = ref false in
      let seed = ref 0 in
      while (not !caught) && !seed < 500 do
        (match Frame_fuzz.check_seed !seed with
        | Some _ -> caught := true
        | None -> ());
        incr seed
      done;
      check Alcotest.bool "planted frame bug caught" true !caught)

(* --- fault-injected connections over a socketpair --- *)

let conn_pair () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  (Conn.of_fd a, Conn.of_fd b)

let sent_frames =
  [
    Frame.Request (Frame.Hello { client = "fault" });
    Frame.Response (Frame.Chunk { id = 1; answers = List.init 40 Fun.id });
    Frame.Request (Frame.Next { id = 1 });
    Frame.Response (Frame.End { id = 1 });
  ]

let test_dribbled_writes () =
  let tx, rx = conn_pair () in
  Conn.set_fault_plan tx
    (Some (Conn.fault_plan ~short_write_p:1.0 (Prng.create 11)));
  let sender = Thread.create (fun () ->
      List.iter (Conn.send tx) sent_frames;
      Conn.close tx) ()
  in
  let got = List.map (fun _ -> Conn.recv rx) sent_frames in
  Thread.join sender;
  Conn.close rx;
  check (Alcotest.list frame_t) "dribbled" sent_frames got;
  check Alcotest.bool "dribbles happened" true (Conn.short_writes tx > 0)

let test_torn_frame_disconnect () =
  let tx, rx = conn_pair () in
  Conn.set_fault_plan tx
    (Some (Conn.fault_plan ~torn_frame_p:1.0 (Prng.create 12)));
  let sender_result = ref None in
  let sender = Thread.create (fun () ->
      sender_result :=
        Some
          (match Conn.send tx (List.hd sent_frames) with
          | () -> false
          | exception Conn.Closed _ -> true)) ()
  in
  (* the peer sees part of a frame, then the cut: a mid-frame close *)
  let mid =
    match Conn.recv rx with
    | _ -> Alcotest.fail "decoded a torn frame"
    | exception Conn.Closed { mid_frame } -> mid_frame
  in
  Thread.join sender;
  Conn.close rx;
  check Alcotest.(option bool) "sender saw Closed" (Some true) !sender_result;
  check Alcotest.bool "receiver cut mid-frame" true mid;
  check Alcotest.int "torn count" 1 (Conn.torn_frames tx)

let test_reset_disconnect () =
  let tx, rx = conn_pair () in
  Conn.set_fault_plan tx
    (Some (Conn.fault_plan ~reset_p:1.0 (Prng.create 13)));
  (match Conn.send tx (List.hd sent_frames) with
  | () -> Alcotest.fail "reset did not surface"
  | exception Conn.Closed _ -> ());
  (* nothing reached the peer: a clean EOF, not a torn frame *)
  (match Conn.recv rx with
  | _ -> Alcotest.fail "decoded a frame across a reset"
  | exception Conn.Closed { mid_frame } ->
      check Alcotest.bool "clean cut" false mid_frame);
  Conn.close rx;
  check Alcotest.int "reset count" 1 (Conn.resets tx)

(* --- end-to-end over a real socket --- *)

let with_server ?(jobs = 2) ?(chunk = 16) ?buffer_chunks f =
  let store, index = make_store 41 in
  Serve.with_service ~jobs ~chunk ?buffer_chunks (fun srv ->
      Serve.add_tenant srv "t0" (Serve.Mem (store, index));
      let path = sock_path () in
      let server = Server.start srv ~path ~name:"test" in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () -> f ~srv ~server ~store ~index ~path))

let test_e2e_identical () =
  with_server (fun ~srv:_ ~server:_ ~store ~index ~path ->
      let qs = queries ~subjects:6 ~seed:5 in
      let cl1 = Client.connect path in
      let cl2 = Client.connect path in
      Fun.protect
        ~finally:(fun () ->
          Client.close cl1;
          Client.close cl2)
        (fun () ->
          List.iteri
            (fun i (q, sem) ->
              let cl = if i mod 2 = 0 then cl1 else cl2 in
              let expected = (Engine.query store index q sem).Engine.answers in
              let got = Client.collect (Client.submit cl ~tenant:"t0" q sem) in
              check (Alcotest.list Alcotest.int)
                (Printf.sprintf "q%d %s" i q)
                expected got)
            qs))

let test_e2e_interleaved () =
  (* two streams alternating chunks on one connection *)
  with_server ~chunk:8 (fun ~srv:_ ~server:_ ~store ~index ~path ->
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let q1 = "//item" and q2 = "//person" in
          let e1 = (Engine.query store index q1 Engine.Insecure).Engine.answers in
          let e2 = (Engine.query store index q2 Engine.Insecure).Engine.answers in
          let s1 = Client.submit cl ~tenant:"t0" q1 Engine.Insecure in
          let s2 = Client.submit cl ~tenant:"t0" q2 Engine.Insecure in
          let g1 = ref [] and g2 = ref [] in
          let more = ref true in
          while !more do
            let c1 = Client.next_chunk s1 in
            let c2 = Client.next_chunk s2 in
            g1 := List.rev_append c1 !g1;
            g2 := List.rev_append c2 !g2;
            more := c1 <> [] || c2 <> []
          done;
          check (Alcotest.list Alcotest.int) "stream 1" e1 (List.rev !g1);
          check (Alcotest.list Alcotest.int) "stream 2" e2 (List.rev !g2)))

let test_e2e_errors () =
  with_server (fun ~srv ~server:_ ~store:_ ~index:_ ~path ->
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (* unknown tenant surfaces as Server_error, not a hang *)
          (match Client.submit cl ~tenant:"nope" "//item" Engine.Insecure with
          | _ -> Alcotest.fail "unknown tenant accepted"
          | exception Client.Server_error _ -> ());
          (* the connection survives the error *)
          let st = Client.submit cl ~tenant:"t0" "//item" Engine.Insecure in
          check Alcotest.bool "non-empty" true (Client.collect st <> []);
          check Alcotest.int "pins settled" 0 (Serve.pinned_readers srv)))

let test_pinned_readers_counter () =
  (* the Serve-level gauge the wire layer exposes: a pin appears while a
     stream is open and disappears once it is closed *)
  with_server ~chunk:4 ~buffer_chunks:1
    (fun ~srv ~server:_ ~store ~index:_ ~path ->
      check Alcotest.int "baseline" 0 (Serve.pinned_readers srv);
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let st = Client.submit cl ~tenant:"t0" "//item" Engine.Insecure in
          let first = Client.next_chunk st in
          check Alcotest.bool "got a chunk" true (first <> []);
          check Alcotest.bool "pin visible mid-stream" true
            (Serve.pinned_readers srv >= 1);
          Client.close_stream st;
          check Alcotest.bool "pin released after close" true
            (eventually (fun () ->
                 Serve.pinned_readers srv = 0 && pin_count store = 0))))

(* THE acceptance test: kill clients mid-stream, count pinned readers
   back to the baseline. *)
let test_abort_releases_pins () =
  with_server ~chunk:4 ~buffer_chunks:1
    (fun ~srv ~server ~store ~index:_ ~path ->
      let baseline = pin_count store in
      (* several clients die at different points: right after submit,
         mid-stream, and mid-stream on a second query *)
      let kill_after n_chunks =
        let cl = Client.connect path in
        let st = Client.submit cl ~tenant:"t0" "//item" Engine.Insecure in
        for _ = 1 to n_chunks do
          ignore (Client.next_chunk st)
        done;
        (* no Close, no goodbye — the fd just dies *)
        Client.abort cl
      in
      kill_after 0;
      kill_after 1;
      kill_after 3;
      check Alcotest.bool "all pins released after aborts" true
        (eventually (fun () -> pin_count store = baseline));
      check Alcotest.int "serve agrees" 0 (Serve.pinned_readers srv);
      check Alcotest.bool "disconnects recorded" true
        (eventually (fun () -> Server.disconnects server >= 3));
      (* the server is still healthy for a well-behaved client *)
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let st = Client.submit cl ~tenant:"t0" "//item" Engine.Insecure in
          check Alcotest.bool "served after aborts" true
            (Client.collect st <> [])))

let test_stats_over_wire () =
  with_server (fun ~srv:_ ~server:_ ~store:_ ~index:_ ~path ->
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          ignore
            (Client.collect (Client.submit cl ~tenant:"t0" "//item" Engine.Insecure));
          let kvs = Client.stats cl in
          let get k =
            match List.assoc_opt k kvs with
            | Some v -> v
            | None -> Alcotest.fail (Printf.sprintf "stats missing %s" k)
          in
          check Alcotest.bool "served counted" true (get "served" >= 1);
          check Alcotest.int "no leaked pins" 0 (get "pinned_readers");
          check Alcotest.bool "session visible" true (get "sessions" >= 1)))

let test_server_stop_with_live_clients () =
  let store, index = make_store 43 in
  Serve.with_service ~jobs:2 ~chunk:4 (fun srv ->
      Serve.add_tenant srv "t0" (Serve.Mem (store, index));
      let path = sock_path () in
      let server = Server.start srv ~path ~name:"test" in
      let cl = Client.connect path in
      let st = Client.submit cl ~tenant:"t0" "//item" Engine.Insecure in
      ignore (Client.next_chunk st);
      (* stop with the client mid-stream: must not hang, must not leak *)
      Server.stop server;
      (match Client.next_chunk st with
      | _ -> ()
      | exception Conn.Closed _ -> ()
      | exception Client.Server_error _ -> ());
      Client.abort cl;
      check Alcotest.bool "socket removed" false (Sys.file_exists path);
      check Alcotest.bool "pins released on stop" true
        (eventually (fun () -> pin_count store = 0)))

(* --- pipelined requests and end-marked chunks --- *)

let test_planted_bug_last () =
  (* the planted canary also drops an answer from an end-marked chunk,
     and the round trip notices *)
  let was = !Frame.planted_bug in
  Frame.planted_bug := true;
  Fun.protect
    ~finally:(fun () -> Frame.planted_bug := was)
    (fun () ->
      let last = Frame.Response (Frame.Last { id = 1; answers = [ 3; 4; 5 ] }) in
      check Alcotest.bool "dropped Last answer detected" false
        (List.equal Frame.equal [ last ] (decode_all (Frame.to_bytes last)));
      (* the seeds of corpus/last-frames.wseed carry a multi-answer Last
         and no multi-answer Chunk: the property sweep catches the drop
         through Last alone *)
      List.iter
        (fun seed ->
          check Alcotest.bool
            (Printf.sprintf "seed %d catches the drop" seed)
            true
            (Frame_fuzz.check_seed seed <> None))
        [ 9; 11; 15; 21 ])

let writes () = Dolx_obs.Metrics.counter_value "wire.writes"

let test_e2e_pins_zero_after_collect () =
  (* the end mark is sent after the reader is released: once collect
     returns, no pin of the query is left, with no waiting — for
     one-chunk (Last), multi-chunk, empty and failing streams *)
  with_server ~chunk:8 (fun ~srv ~server:_ ~store ~index ~path ->
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let qs = queries ~subjects:6 ~seed:9 @ [ ("//nosuchtag", Engine.Insecure) ] in
          for round = 1 to 3 do
            List.iter
              (fun (q, sem) ->
                let got = Client.collect (Client.submit cl ~tenant:"t0" q sem) in
                check (Alcotest.list Alcotest.int)
                  (Printf.sprintf "round %d %s" round q)
                  (Engine.query store index q sem).Engine.answers got;
                check Alcotest.int
                  (Printf.sprintf "round %d %s: pins at once" round q)
                  0 (Serve.pinned_readers srv))
              qs
          done;
          (match Client.collect (Client.submit cl ~tenant:"t0" "//item[" Engine.Insecure) with
          | _ -> Alcotest.fail "malformed query answered"
          | exception Client.Server_error _ -> ());
          check Alcotest.int "pins at once after an error" 0
            (Serve.pinned_readers srv)))

let test_e2e_one_write_per_short_query () =
  (* a query whose answers fit one chunk costs the server one write
     (Accepted and Last together); a k-chunk one costs k, or k + 1 when
     the chunk size divides the answer count (the trailing End) *)
  let count q =
    let store, index = make_store 41 in
    List.length (Engine.query store index q Engine.Insecure).Engine.answers
  in
  (* chunk 16, then a chunk size equal to //item's answer count *)
  List.iter
    (fun chunk ->
      with_server ~chunk (fun ~srv:_ ~server:_ ~store ~index ~path ->
          let cl = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              List.iter
                (fun q ->
                  let n =
                    List.length
                      (Engine.query store index q Engine.Insecure).Engine.answers
                  in
                  let chunks = (n + chunk - 1) / chunk in
                  let expected = if n mod chunk = 0 then chunks + 1 else chunks in
                  let w0 = writes () in
                  ignore
                    (Client.collect (Client.submit cl ~tenant:"t0" q Engine.Insecure));
                  check Alcotest.int
                    (Printf.sprintf "%s (%d answers, chunk %d): server writes" q n
                       chunk)
                    expected (writes () - w0))
                [ "/site"; "/site/regions"; "//item"; "//nosuchtag" ])))
    [ 16; count "//item" ]

let test_e2e_pipelined_errors () =
  (* every typed error of a pipelined Submit+Next leaves no reply
     unread: the next exchange on the connection gets its own reply *)
  let store, index = make_store 41 in
  Serve.with_service ~jobs:1 ~chunk:4 ~buffer_chunks:1 ~max_queued:1 (fun srv ->
      Serve.add_tenant srv "t0" (Serve.Mem (store, index));
      let path = sock_path () in
      let server = Server.start srv ~path ~name:"test" in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let cl = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              let still_in_sync what =
                let kvs = Client.stats cl in
                check Alcotest.bool (what ^ ": next reply is its own") true
                  (List.mem_assoc "served" kvs)
              in
              (match Client.submit cl ~tenant:"nope" "//item" Engine.Insecure with
              | _ -> Alcotest.fail "unknown tenant accepted"
              | exception Client.Server_error _ -> ());
              still_in_sync "unknown tenant";
              let st = Client.submit cl ~tenant:"t0" "//item[" Engine.Insecure in
              (match Client.next_chunk st with
              | _ -> Alcotest.fail "malformed query answered"
              | exception Client.Server_error _ -> ());
              check (Alcotest.list Alcotest.int) "failed stream stays ended" []
                (Client.next_chunk st);
              still_in_sync "malformed xpath";
              (* wedge the one worker on an undrained stream, queue one
                 job behind it: the admission bound is then reached *)
              let blocker = Serve.submit srv ~tenant:"t0" "//item" Engine.Insecure in
              ignore (Serve.next_chunk blocker);
              let queued = Serve.submit srv ~tenant:"t0" "/site" Engine.Insecure in
              (match Client.submit cl ~tenant:"t0" "/site" Engine.Insecure with
              | _ -> Alcotest.fail "submit past the admission bound accepted"
              | exception Serve.Overloaded -> ());
              still_in_sync "shed";
              Serve.close blocker;
              check (Alcotest.list Alcotest.int) "queued job still served"
                (Engine.query store index "/site" Engine.Insecure).Engine.answers
                (Serve.collect queued);
              check (Alcotest.list Alcotest.int) "connection still serves"
                (Engine.query store index "/site" Engine.Insecure).Engine.answers
                (Client.collect (Client.submit cl ~tenant:"t0" "/site" Engine.Insecure)))))

let test_e2e_close_right_after_submit () =
  with_server ~chunk:4 ~buffer_chunks:1
    (fun ~srv ~server:_ ~store ~index ~path ->
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          for _ = 1 to 5 do
            let st = Client.submit cl ~tenant:"t0" "//item" Engine.Insecure in
            Client.close_stream st;
            check (Alcotest.list Alcotest.int) "closed stream reads empty" []
              (Client.next_chunk st)
          done;
          check Alcotest.bool "pins released after close" true
            (eventually (fun () -> Serve.pinned_readers srv = 0 && pin_count store = 0));
          check (Alcotest.list Alcotest.int) "connection still serves"
            (Engine.query store index "//item/name" Engine.Insecure).Engine.answers
            (Client.collect
               (Client.submit cl ~tenant:"t0" "//item/name" Engine.Insecure))))

let test_e2e_interleaved_mixed_ends () =
  (* streams ending by Last, by End after a full chunk, empty, and
     multi-chunk, their pulls alternating on one connection *)
  with_server ~chunk:8 (fun ~srv ~server:_ ~store ~index ~path ->
      let cl = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let exact =
            (* a query whose answer count the chunk size divides, if
               the document has one among these *)
            List.find_opt
              (fun q ->
                let n =
                  List.length (Engine.query store index q Engine.Insecure).Engine.answers
                in
                n > 0 && n mod 8 = 0)
              [ "//item/name"; "//person"; "//category"; "//open_auction"; "//bidder" ]
          in
          let qs =
            [ "//item"; "/site"; "//nosuchtag"; "//person/name" ]
            @ Option.to_list exact
          in
          let streams =
            List.map (fun q -> (q, Client.submit cl ~tenant:"t0" q Engine.Insecure, ref [])) qs
          in
          let more = ref true in
          while !more do
            more := false;
            List.iter
              (fun (_, st, acc) ->
                match Client.next_chunk st with
                | [] -> ()
                | c ->
                    acc := List.rev_append c !acc;
                    more := true)
              streams
          done;
          List.iter
            (fun (q, _, acc) ->
              check (Alcotest.list Alcotest.int) q
                (Engine.query store index q Engine.Insecure).Engine.answers
                (List.rev !acc))
            streams;
          check Alcotest.int "no pins left" 0 (Serve.pinned_readers srv)))

let suite =
  [
    Alcotest.test_case "codec: round-trip all frame types" `Quick
      test_round_trip;
    Alcotest.test_case "codec: byte-at-a-time reassembly" `Quick
      test_short_reads;
    Alcotest.test_case "codec: torn prefixes stop at the cut" `Quick
      test_torn_prefixes;
    Alcotest.test_case "codec: hostile length prefixes bounded" `Quick
      test_length_bounds;
    Alcotest.test_case "codec: corrupt payloads rejected" `Quick
      test_corrupt_payload;
    Alcotest.test_case "codec: seeded property sweep" `Quick
      test_codec_properties;
    Alcotest.test_case "codec: corpus replay" `Quick test_corpus_replay;
    Alcotest.test_case "codec: planted-bug canary is detectable" `Quick
      test_planted_bug_canary;
    Alcotest.test_case "conn: dribbled writes reassemble" `Quick
      test_dribbled_writes;
    Alcotest.test_case "conn: torn frame is a mid-frame disconnect" `Quick
      test_torn_frame_disconnect;
    Alcotest.test_case "conn: reset is a clean disconnect" `Quick
      test_reset_disconnect;
    Alcotest.test_case "e2e: answers byte-identical to in-process" `Quick
      test_e2e_identical;
    Alcotest.test_case "e2e: interleaved streams on one connection" `Quick
      test_e2e_interleaved;
    Alcotest.test_case "e2e: errors surface without wedging" `Quick
      test_e2e_errors;
    Alcotest.test_case "e2e: pinned_readers tracks open streams" `Quick
      test_pinned_readers_counter;
    Alcotest.test_case "e2e: client abort releases reader pins" `Quick
      test_abort_releases_pins;
    Alcotest.test_case "e2e: stats over the wire" `Quick test_stats_over_wire;
    Alcotest.test_case "e2e: stop with live clients" `Quick
      test_server_stop_with_live_clients;
    Alcotest.test_case "codec: planted-bug canary drops a Last answer" `Quick
      test_planted_bug_last;
    Alcotest.test_case "e2e: no pins once collect returns" `Quick
      test_e2e_pins_zero_after_collect;
    Alcotest.test_case "e2e: one server write per one-chunk query" `Quick
      test_e2e_one_write_per_short_query;
    Alcotest.test_case "e2e: pipelined submit errors leave no reply unread"
      `Quick test_e2e_pipelined_errors;
    Alcotest.test_case "e2e: close_stream right after submit" `Quick
      test_e2e_close_right_after_submit;
    Alcotest.test_case "e2e: interleaved streams, every kind of end" `Quick
      test_e2e_interleaved_mixed_ends;
  ]
