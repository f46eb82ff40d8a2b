module Tree = Dolx_xml.Tree
module Subject = Dolx_policy.Subject
module Propagate = Dolx_policy.Propagate
module Labeling = Dolx_policy.Labeling
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Db_file = Dolx_core.Db_file
module Group_commit = Dolx_core.Group_commit
module Disk = Dolx_storage.Disk
module Tag_index = Dolx_index.Tag_index
module Value_index = Dolx_index.Value_index
module Engine = Dolx_nok.Engine
module Serve = Dolx_serve.Serve
module Prng = Dolx_util.Prng
module Bitset = Dolx_util.Bitset

type config = {
  run_index : bool;
  summary : bool;
  jobs : int;
  faults : bool;
  recovery : bool;
}

let base_config =
  {
    run_index = true;
    summary = true;
    jobs = 1;
    faults = false;
    recovery = false;
  }

let lattice =
  [
    base_config;
    { base_config with run_index = false };
    { base_config with summary = false };
    { base_config with jobs = 4 };
    { base_config with faults = true };
    { base_config with recovery = true };
  ]

(* Every case probes both run-index settings internally (the checks
   toggle per handle), so the rotation alternates the store-level
   setting and cycles the expensive extras. *)
let config_for_case i =
  let i = abs i in
  let run_index = i land 1 = 0 in
  let summary = (i lsr 1) land 1 = 0 in
  match i mod 3 with
  | 0 -> { base_config with run_index; summary; jobs = 4 }
  | 1 -> { base_config with run_index; summary; faults = true }
  | _ -> { base_config with run_index; summary; recovery = true }

let config_name c =
  Printf.sprintf "runs=%s,sum=%s,jobs=%d,faults=%s,recovery=%s"
    (if c.run_index then "on" else "off")
    (if c.summary then "on" else "off")
    c.jobs
    (if c.faults then "on" else "off")
    (if c.recovery then "on" else "off")

type mismatch = { params : Gen.params; config : config; check : string; detail : string }

exception Check_failed of string * string

let failf check fmt = Printf.ksprintf (fun d -> raise (Check_failed (check, d))) fmt

(* --- per-case mutable state: the stack under test + the oracle --- *)

type st = {
  cfg : config;
  case : Gen.case;
  oracle : Oracle.t;
  mutable tree : Tree.t;
  mutable store : Store.t;
  mutable index : Tag_index.t;
  torn_rng : Prng.t;  (* extra tear points for update_images *)
  fault_seed : int;
}

let install_faults st =
  if st.cfg.faults then
    Disk.set_fault_plan (Store.disk st.store)
      (Some (Disk.fault_plan ~transient_read_p:0.01 (Prng.create st.fault_seed)))

(* Structural updates renumber preorders: rebuild the physical layout
   (as Update's contract requires) and the tag index. *)
let apply_flags cfg store =
  Store.set_run_index store cfg.run_index;
  Store.set_summary store cfg.summary

let rebuilt st dol' =
  st.store <- Store.rebuild st.store st.tree dol';
  apply_flags st.cfg st.store;
  install_faults st;
  st.index <- Tag_index.build st.tree

(* --- cross-checks --- *)

let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let with_runs_toggled st f =
  Store.set_run_index st.store (not st.cfg.run_index);
  Fun.protect ~finally:(fun () -> Store.set_run_index st.store st.cfg.run_index) f

(* Every access check the store exposes, against the oracle matrix, on
   both run-index settings.  Big cases are stride-sampled (the first
   nodes are always probed). *)
let check_matrix st tag =
  let n = Tree.size st.tree and w = Oracle.width st.oracle in
  let stride = max 1 (n * w / 4096) in
  let probe s v =
    let want = Oracle.accessible st.oracle ~subject:s v in
    if Store.accessible st.store ~subject:s v <> want then
      failf tag "accessible s=%d v=%d: store %b, oracle %b" s v (not want) want;
    if Store.accessible_with_skip st.store ~subject:s v <> want then
      failf tag "accessible_with_skip s=%d v=%d: store %b, oracle %b" s v (not want) want
  in
  let sweep () =
    let i = ref 0 in
    for s = 0 to w - 1 do
      for v = 0 to n - 1 do
        if v < 8 || !i mod stride = 0 then probe s v;
        incr i
      done
    done
  in
  sweep ();
  with_runs_toggled st sweep

let oracle_sem st = function
  | Engine.Insecure -> Oracle.Any
  | Engine.Secure s -> Oracle.Bound (fun v -> Oracle.accessible st.oracle ~subject:s v)
  | Engine.Secure_path s -> Oracle.Path (fun v -> Oracle.accessible st.oracle ~subject:s v)

let sem_name = function
  | Engine.Insecure -> "insecure"
  | Engine.Secure s -> Printf.sprintf "secure(%d)" s
  | Engine.Secure_path s -> Printf.sprintf "secure-path(%d)" s

(* All three semantics, secure ones for the first few subjects. *)
let all_sems st =
  let w = min (Oracle.width st.oracle) 3 in
  Engine.Insecure
  :: List.concat (List.init w (fun s -> [ Engine.Secure s; Engine.Secure_path s ]))

(* Each query on both run-index settings, and once more seeded from a
   value index (the only path that takes value postings). *)
let check_query st tag (q : Gen.query) =
  let value_index = Value_index.build st.tree in
  List.iter
    (fun sem ->
      let want = Oracle.eval st.tree (oracle_sem st sem) q.Gen.pat in
      let engine ?value_index label =
        let got = (Engine.run ?value_index st.store st.index q.Gen.pat sem).Engine.answers in
        if got <> want then
          failf tag "%s under %s%s: engine %s, oracle %s" (Gen.query_to_string q)
            (sem_name sem) label (ints got) (ints want)
      in
      engine "";
      with_runs_toggled st (fun () -> engine " (runs toggled)");
      engine ~value_index " (value index)")
    (all_sems st)

(* Service batch: every query under every semantics across the
   workers, streamed in chunks and ticket buffers sized from the case
   seed. *)
let check_exec st tag =
  if st.cfg.jobs > 1 then
    let tasks =
      List.concat_map
        (fun q -> List.map (fun sem -> (q, sem)) (all_sems st))
        st.case.Gen.queries
    in
    if tasks <> [] then begin
      let g = Prng.create (st.fault_seed lxor 0x5E4E) in
      let chunk = 1 + Prng.int g 70 in
      let buffer_chunks = 1 + Prng.int g 4 in
      let answers =
        Serve.with_service ~jobs:st.cfg.jobs ~chunk ~buffer_chunks (fun srv ->
            Serve.add_tenant srv "case" (Serve.Mem (st.store, st.index));
            Serve.run_batch srv ~tenant:"case"
              (List.map (fun (q, s) -> (q.Gen.pat, s)) tasks))
      in
      List.iter2
        (fun (q, sem) got ->
          let want = Oracle.eval st.tree (oracle_sem st sem) q.Gen.pat in
          if got <> want then
            failf tag "batch %s under %s (chunk %d, buffer %d): service %s, \
                       oracle %s"
              (Gen.query_to_string q) (sem_name sem) chunk buffer_chunks
              (ints got) (ints want))
        tasks answers
    end

(* --- trace application --- *)

let store_matrix store w =
  let n = Tree.size (Store.tree store) in
  Array.init w (fun s -> Array.init n (fun v -> Store.accessible store ~subject:s v))

(* Accessibility update: applied directly, or — under [recovery] —
   through the journaled crash-replay, checking that every crash image
   loads as exactly the pre- or exactly the post-update matrix. *)
let apply_access st i upd =
  let tag =
    Printf.sprintf "trace[%d].%s" i
      (match upd with `Node _ -> "set-node" | `Subtree _ -> "set-subtree")
  in
  let stack_update store =
    match upd with
    | `Node (s, g, v) -> ignore (Update.set_node_accessibility store ~subject:s ~grant:g v)
    | `Subtree (s, g, v) -> Update.set_subtree_accessibility store ~subject:s ~grant:g v
  in
  let oracle_update () =
    match upd with
    | `Node (s, g, v) -> Oracle.set_node st.oracle ~subject:s ~grant:g v
    | `Subtree (s, g, v) ->
        Oracle.set_range st.oracle ~subject:s ~grant:g ~lo:v ~hi:(Tree.subtree_end st.tree v)
  in
  if not st.cfg.recovery then begin
    (* MVCC snapshot isolation: a reader pinned before the update keeps
       the pre-update matrix; a reader opened after sees exactly the
       post-update matrix.  Probed on the touched range plus a few
       strided points so a stale or mixed snapshot is caught on the spot
       (this is the deterministic companion to [check_linearizable]). *)
    let n = Tree.size st.tree and w = Oracle.width st.oracle in
    let v0, v1 =
      match upd with
      | `Node (_, _, v) -> (v, v)
      | `Subtree (_, _, v) -> (v, Tree.subtree_end st.tree v)
    in
    let probes =
      List.sort_uniq compare
        (List.filter
           (fun v -> v >= 0 && v < n)
           [ 0; n - 1; v0 - 1; v0; (v0 + v1) / 2; v1; v1 + 1; n / 3 ])
    in
    let pre = Oracle.snapshot st.oracle in
    let pinned = Store.reader st.store in
    Fun.protect
      ~finally:(fun () -> Store.release pinned)
      (fun () ->
        stack_update st.store;
        oracle_update ();
        List.iter
          (fun v ->
            for s = 0 to w - 1 do
              let got = Store.accessible pinned ~subject:s v in
              if got <> pre.(s).(v) then
                failf tag
                  "mvcc-stale: pinned reader s=%d v=%d saw %b, pre-update %b" s
                  v got pre.(s).(v)
            done)
          probes;
        Store.with_reader st.store (fun fresh ->
            List.iter
              (fun v ->
                for s = 0 to w - 1 do
                  let want = Oracle.accessible st.oracle ~subject:s v in
                  if Store.accessible fresh ~subject:s v <> want then
                    failf tag
                      "mvcc-fresh: post-update reader s=%d v=%d saw %b, \
                       oracle %b"
                      s v (not want) want
                done)
              probes))
  end
  else begin
    let w = Oracle.width st.oracle in
    let pre = Oracle.snapshot st.oracle in
    let base = Db_file.to_bytes st.store in
    oracle_update ();
    let post = Oracle.snapshot st.oracle in
    let images = Db_file.update_images ~torn:st.torn_rng ~base stack_update in
    let last = List.length images - 1 in
    List.iteri
      (fun k img ->
        let loaded, _ = Db_file.of_bytes img in
        let want = if k = last then post else pre in
        if store_matrix loaded w <> want then
          failf tag "crash image %d/%d does not load as the %s-update state" k
            (last + 1)
            (if k = last then "post" else "pre"))
      images;
    (* continue the trace from the committed image, like a real restart *)
    let committed, _ = Db_file.of_bytes (List.nth images last) in
    apply_flags st.cfg committed;
    st.store <- committed;
    st.tree <- Store.tree committed;
    install_faults st;
    st.index <- Tag_index.build st.tree
  end

(* --- linearizability under genuinely concurrent updates (jobs > 1) ---

   One writer (the calling domain) applies [k] accessibility updates,
   bumping an atomic schedule counter after each publish; reader domains
   repeatedly open an epoch-pinned reader and probe a fixed sample of
   (subject, node) points plus one query.  Every reader iteration must
   observe exactly one oracle state S_j with j in [lo, hi+1], where lo
   and hi are the counter before and after the probe window (the +1
   because the writer publishes before bumping the counter).  A torn
   snapshot — runs from two policy states, or a page at the wrong
   version — matches no single S_j and fails here.

   The writer also observes every state itself, on a reader it pins
   right after each publish (and once before the first update), and
   that observation must match S_j exactly.  Those checks do not depend
   on how the readers were scheduled, so a bug visible in a single
   state fails the case every time — which keeps shrinking
   deterministic — and their failures are reported first. *)
let check_linearizable st ~seed tag =
  let n = Tree.size st.tree and w = Oracle.width st.oracle in
  let prng = Prng.create seed in
  let k = 4 in
  let apply_to oracle (s, v, grant, subtree) =
    if subtree then
      Oracle.set_range oracle ~subject:s ~grant ~lo:v
        ~hi:(Tree.subtree_end st.tree v)
    else Oracle.set_node oracle ~subject:s ~grant v
  in
  let scratch = Oracle.create (Oracle.snapshot st.oracle) in
  let states = Array.make (k + 1) (Oracle.snapshot scratch) in
  let upds =
    List.init k (fun j ->
        let s = Prng.int prng w and v = Prng.int prng n in
        let subtree = Prng.bool prng ~p:0.3 in
        (* flip the node's current bit, so every update is a real change
           and every consecutive pair of states is distinguishable at a
           probed point *)
        let u = (s, v, not (Oracle.accessible scratch ~subject:s v), subtree) in
        apply_to scratch u;
        states.(j + 1) <- Oracle.snapshot scratch;
        u)
  in
  let probes =
    let stride = max 1 (n / 8) in
    let rec pts v = if v >= n then [ n - 1 ] else v :: pts (v + stride) in
    List.sort_uniq compare (pts 0 @ List.map (fun (_, v, _, _) -> v) upds)
  in
  let query =
    match st.case.Gen.queries with q :: _ -> Some q.Gen.pat | [] -> None
  in
  let observe r =
    let obs =
      List.map
        (fun v -> List.init w (fun s -> Store.accessible r ~subject:s v))
        probes
    in
    let qans =
      Option.map
        (fun pat -> (Engine.run r st.index pat (Engine.Secure 0)).Engine.answers)
        query
    in
    (obs, qans)
  in
  let matches j (obs, qans) =
    let m = states.(j) in
    List.for_all2
      (fun v row -> List.for_all2 (fun s b -> m.(s).(v) = b) (List.init w Fun.id) row)
      probes obs
    &&
    match (query, qans) with
    | Some pat, Some ans ->
        ans = Oracle.eval st.tree (Oracle.Bound (fun v -> m.(0).(v))) pat
    | _ -> true
  in
  let own = ref [] in
  let check_own j =
    if not (matches j (Store.with_reader st.store observe)) then
      own := Printf.sprintf "writer's reader after %d update(s) does not read S%d" j j
             :: !own
  in
  let counter = Atomic.make 0 in
  let failures = Atomic.make [] in
  let record f =
    let rec add () =
      let old = Atomic.get failures in
      if not (Atomic.compare_and_set failures old (f :: old)) then add ()
    in
    add ()
  in
  let reader () =
    let iter = ref 0 in
    let continue = ref true in
    while !continue do
      incr iter;
      let lo = Atomic.get counter in
      let seen = Store.with_reader st.store observe in
      let hi = min (Atomic.get counter + 1) k in
      let rec any j = j <= hi && (matches j seen || any (j + 1)) in
      if not (any lo) then
        record
          (Printf.sprintf
             "reader iteration %d: observation matches no single state in \
              [%d,%d]"
             !iter lo hi);
      if Atomic.get counter >= k then continue := false
    done
  in
  (* a reader pinned before the schedule: must read S_0 throughout,
     checked deterministically right after the first update (which, by
     the flip construction, changed a bit this reader must not see) and
     again once the writer is done *)
  let held = Store.reader st.store in
  let check_held ctx =
    List.iter
      (fun v ->
        for s = 0 to w - 1 do
          if Store.accessible held ~subject:s v <> states.(0).(s).(v) then
            record
              (Printf.sprintf "pinned reader drifted off S0 at s=%d v=%d (%s)"
                 s v ctx)
        done)
      probes
  in
  check_own 0;
  let readers =
    List.init (max 1 (st.cfg.jobs - 1)) (fun _ -> Domain.spawn reader)
  in
  List.iteri
    (fun j u ->
      (match u with
      | s, v, grant, true ->
          Update.set_subtree_accessibility st.store ~subject:s ~grant v
      | s, v, grant, false ->
          ignore (Update.set_node_accessibility st.store ~subject:s ~grant v));
      Atomic.set counter (j + 1);
      check_own (j + 1);
      if j = 0 then check_held "after first update")
    upds;
  List.iter Domain.join readers;
  check_held "after full schedule";
  Store.release held;
  (* fold the schedule into the trace oracle so the case continues *)
  List.iter (apply_to st.oracle) upds;
  match List.rev !own @ Atomic.get failures with
  | [] -> ()
  | f :: _ -> failf tag "%s" f

(* --- group commit & torn-batch recovery (recovery configs) ---

   Chain three updates as journal records on a clean image: every
   committed prefix must load as exactly the state after that many
   records, PRNG-chosen torn cuts must load as SOME prefix state, replay
   must be idempotent (load + re-serialize + reload preserves the
   state), and [Group_commit.submit_batch] over the same updates from
   the same base must produce the identical image with the predicted
   flush count. *)
let check_group_crash st tag =
  let n = Tree.size st.tree and w = Oracle.width st.oracle in
  let prng = Prng.create (st.fault_seed lxor 0x6C01) in
  let k = 3 in
  let upds =
    List.init k (fun _ ->
        (Prng.int prng w, Prng.int prng n, Prng.bool prng ~p:0.5))
  in
  let scratch = Oracle.create (Oracle.snapshot st.oracle) in
  let states = Array.make (k + 1) (Oracle.snapshot scratch) in
  List.iteri
    (fun j (s, v, g) ->
      Oracle.set_node scratch ~subject:s ~grant:g v;
      states.(j + 1) <- Oracle.snapshot scratch)
    upds;
  let fs =
    List.map
      (fun (s, v, g) store ->
        ignore (Update.set_node_accessibility store ~subject:s ~grant:g v))
      upds
  in
  let base = Db_file.to_bytes st.store in
  let images =
    Array.of_list
      (List.rev
         (List.fold_left
            (fun acc f ->
              Db_file.append_update ~image:(List.hd acc) f :: acc)
            [ base ] fs))
  in
  Array.iteri
    (fun j img ->
      let loaded, _ = Db_file.of_bytes img in
      if store_matrix loaded w <> states.(j) then
        failf tag "committed prefix %d/%d does not load as state %d" j k j;
      (* idempotent replay: rolling the journal forward and compacting
         must preserve the state exactly (a second recovery pass over
         the same records is a no-op) *)
      let replayed, _ = Db_file.of_bytes (Db_file.to_bytes loaded) in
      if store_matrix replayed w <> states.(j) then
        failf tag "re-serialized image %d/%d changed state on reload" j k)
    images;
  let final = images.(k) in
  let base_len = Bytes.length base in
  let span = Bytes.length final - (base_len - 1) in
  for _ = 1 to 6 do
    let cut = base_len - 1 + Prng.int prng (span + 1) in
    let torn = Bytes.sub final 0 cut in
    let loaded, _ = Db_file.of_bytes torn in
    let m = store_matrix loaded w in
    if not (Array.exists (fun sm -> m = sm) states) then
      failf tag "torn image (cut at %d/%d) loads as no batch-prefix state" cut
        (Bytes.length final)
  done;
  let gc = Group_commit.create base in
  Group_commit.submit_batch gc fs;
  if not (Bytes.equal (Group_commit.image gc) final) then
    failf tag "group-commit image differs from sequential appends";
  let stats = Group_commit.stats gc in
  let mb = Group_commit.max_batch gc in
  let want_flushes = (k + mb - 1) / mb in
  if stats.Group_commit.flushes <> want_flushes then
    failf tag "group commit used %d flushes for %d records (want %d)"
      stats.Group_commit.flushes k want_flushes;
  let clean = Group_commit.checkpoint gc in
  let loaded, _ = Db_file.of_bytes clean in
  if store_matrix loaded w <> states.(k) then
    failf tag "checkpointed image does not load as the final state"

let dol_of_matrix fm n =
  let w = Array.length fm in
  let b = Dol.Streaming.create ~width:w in
  for v = 0 to n - 1 do
    let bs = Bitset.create w in
    for s = 0 to w - 1 do
      Bitset.set bs s fm.(s).(v)
    done;
    ignore (Dol.Streaming.push b bs)
  done;
  Dol.Streaming.finish b

(* Raw generated operands are reduced modulo the current document size /
   subject width here, so traces stay applicable as the document and the
   subject population grow and shrink. *)
let apply_op st i (op : Gen.op) =
  let n = Tree.size st.tree in
  let w = Oracle.width st.oracle in
  (match op with
  | Gen.Query q -> check_query st (Printf.sprintf "trace[%d].query" i) q
  | Gen.Set_node { subject; grant; node } ->
      apply_access st i (`Node (subject mod w, grant, node mod n))
  | Gen.Set_subtree { subject; grant; node } ->
      apply_access st i (`Subtree (subject mod w, grant, node mod n))
  | Gen.Delete_subtree { node } ->
      let v = node mod n in
      if v <> Tree.root then begin
        let hi = Tree.subtree_end st.tree v in
        let dol' = Update.dol_delete (Store.dol st.store) ~lo:v ~hi in
        st.tree <- Tree.remove_subtree st.tree v;
        Oracle.delete_range st.oracle ~lo:v ~hi;
        rebuilt st dol'
      end
  | Gen.Insert_subtree { parent; sibling; frag_seed; frag_nodes } ->
      let p = parent mod n in
      let kids = Tree.children st.tree p in
      let after =
        match sibling mod (List.length kids + 1) with
        | 0 -> Tree.nil
        | k -> List.nth kids (k - 1)
      in
      let frag = Gen.tree ~seed:frag_seed ~nodes:(max 1 frag_nodes) in
      let fm = Gen.fragment_matrix ~seed:frag_seed ~width:w frag in
      let fdol = dol_of_matrix fm (Tree.size frag) in
      let tree', at = Tree.insert_subtree st.tree ~parent:p ~after frag in
      let dol' = Update.dol_insert (Store.dol st.store) ~at fdol in
      st.tree <- tree';
      Oracle.insert_at st.oracle ~at fm;
      rebuilt st dol'
  | Gen.Add_subject { like } ->
      let like = Option.map (fun s -> s mod w) like in
      let s' =
        match like with
        | Some l -> Update.store_add_subject st.store ~like:l ()
        | None -> Update.store_add_subject st.store ()
      in
      if s' <> w then
        failf (Printf.sprintf "trace[%d].add-subject" i) "new index %d, expected %d" s' w;
      Oracle.add_subject st.oracle ~like
  | Gen.Remove_subject { subject } ->
      if w > 1 then begin
        Update.store_remove_subject st.store (subject mod w);
        Oracle.remove_subject st.oracle (subject mod w)
      end
  | Gen.Compact -> Update.compact (Store.dol st.store));
  check_matrix st (Printf.sprintf "trace[%d].post-matrix" i)

(* --- one full case under one configuration --- *)

let check_params cfg (params : Gen.params) =
  try
    let case = Gen.case params in
    let user_acc =
      Oracle.mso_users case.Gen.tree ~subjects:case.Gen.subjects ~mode:case.Gen.mode
        ~default:false case.Gen.rules
    in
    let lab =
      Propagate.compile case.Gen.tree ~subjects:case.Gen.subjects ~mode:case.Gen.mode
        ~default:Propagate.Closed case.Gen.rules
    in
    let ulab, uorder = Labeling.materialize_users lab ~registry:case.Gen.subjects in
    if uorder <> Array.of_list (Subject.users case.Gen.subjects) then
      failf "materialize-users" "user order differs from Subject.users";
    let dol = Dol.of_labeling ulab in
    Dol.validate dol;
    let store =
      Store.create ~page_size:case.Gen.page_size ~pool_capacity:8 ~run_index:cfg.run_index
        ~path_summary:cfg.summary case.Gen.tree dol
    in
    let st =
      {
        cfg;
        case;
        oracle = Oracle.create user_acc;
        tree = case.Gen.tree;
        store;
        index = Tag_index.build case.Gen.tree;
        torn_rng = Prng.create (params.Gen.seed lxor 0x70A2);
        fault_seed = params.Gen.seed lxor 0xFA17;
      }
    in
    install_faults st;
    check_matrix st "compile.matrix";
    List.iteri (fun i q -> check_query st (Printf.sprintf "query[%d]" i) q) case.Gen.queries;
    check_exec st "exec";
    List.iteri (fun i op -> apply_op st i op) case.Gen.trace;
    if case.Gen.trace <> [] then begin
      check_matrix st "post-trace.matrix";
      List.iteri
        (fun i q -> check_query st (Printf.sprintf "post-trace.query[%d]" i) q)
        case.Gen.queries;
      check_exec st "post-trace.exec"
    end;
    (* run the schedules LAST: both mutate state (linearizable folds its
       updates into the oracle), so running them here keeps the rest of
       the case's trajectory — and its shrink behavior — independent of
       these checks *)
    if cfg.jobs > 1 then begin
      check_linearizable st ~seed:(params.Gen.seed lxor 0x11EA) "linearizable";
      check_matrix st "linearizable.post-matrix"
    end;
    if cfg.recovery then check_group_crash st "group-crash";
    None
  with
  | Check_failed (check, detail) -> Some { params; config = cfg; check; detail }
  | Disk.Fault { kind = Disk.Transient_read; _ } when cfg.faults ->
      (* injected fault escaped the pool's bounded retries: not a bug *)
      None
  | e -> Some { params; config = cfg; check = "exception"; detail = Printexc.to_string e }

let check_all p =
  List.fold_left
    (fun acc cfg -> match acc with Some _ -> acc | None -> check_params cfg p)
    None lattice

(* --- shrinking: regenerate with smaller parameters (prefix-stable
   sub-seeding in Gen keeps the surviving components identical) --- *)

let dedup xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let shrink_candidates (p : Gen.params) =
  let open Gen in
  (* dropping any single rule, in addition to suffix truncation — a
     failure often hinges on one rule in the middle of the set *)
  let full = if p.rule_mask = -1 then (1 lsl max 0 p.n_rules) - 1 else p.rule_mask in
  let mask_drops =
    List.filter_map
      (fun i ->
        if full land (1 lsl i) <> 0 then Some { p with rule_mask = full land lnot (1 lsl i) }
        else None)
      (List.init (max 0 p.n_rules) Fun.id)
  in
  let cands =
    [
      { p with nodes = p.nodes / 2 };
      { p with nodes = p.nodes * 3 / 4 };
      { p with nodes = p.nodes - 1 };
      { p with trace_len = 0 };
      { p with trace_len = p.trace_len / 2 };
      { p with trace_len = p.trace_len - 1 };
      { p with n_rules = 0 };
      { p with n_rules = p.n_rules / 2 };
      { p with n_rules = p.n_rules - 1 };
      { p with n_queries = 1 };
      { p with n_queries = p.n_queries - 1 };
      { p with n_groups = 0 };
      { p with n_groups = p.n_groups - 1 };
      { p with n_users = p.n_users - 1 };
    ]
    @ mask_drops
  in
  let valid q =
    q.nodes >= 1 && q.n_users >= 1 && q.n_groups >= 0 && q.n_rules >= 0
    && q.n_queries >= 0 && q.trace_len >= 0
    (* monotone: never grow any component *)
    && q.nodes <= p.nodes && q.n_users <= p.n_users && q.n_groups <= p.n_groups
    && q.n_rules <= p.n_rules && q.n_queries <= p.n_queries
    && q.trace_len <= p.trace_len
    && Gen.effective_rules q <= Gen.effective_rules p
    && q <> p
  in
  dedup (List.filter valid cands)

let shrink cfg p0 =
  let checks = ref 0 in
  let limit = 200 in
  let rec go p =
    let rec try_cands = function
      | [] -> p
      | c :: rest ->
          if !checks >= limit then p
          else begin
            incr checks;
            match check_params cfg c with Some _ -> go c | None -> try_cands rest
          end
    in
    try_cands (shrink_candidates p)
  in
  let best = go p0 in
  (best, !checks)

(* --- repro lines and corpus files --- *)

let repro_line (p : Gen.params) =
  Printf.sprintf
    "DOLX-FUZZ v1 seed=%d nodes=%d users=%d groups=%d rules=%d queries=%d trace=%d%s"
    p.Gen.seed p.Gen.nodes p.Gen.n_users p.Gen.n_groups p.Gen.n_rules p.Gen.n_queries
    p.Gen.trace_len
    (if p.Gen.rule_mask = -1 then "" else Printf.sprintf " rmask=%d" p.Gen.rule_mask)

let parse_repro line =
  match
    String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
  with
  | "DOLX-FUZZ" :: "v1" :: fields -> (
      try
        let get k =
          let prefix = k ^ "=" in
          match List.find_opt (String.starts_with ~prefix) fields with
          | None -> raise Exit
          | Some f ->
              let v =
                int_of_string
                  (String.sub f (String.length prefix)
                     (String.length f - String.length prefix))
              in
              if v < 0 || v > 1_000_000_000 then raise Exit;
              v
        in
        let p =
          {
            Gen.seed = get "seed";
            nodes = get "nodes";
            n_users = get "users";
            n_groups = get "groups";
            n_rules = get "rules";
            n_queries = get "queries";
            trace_len = get "trace";
            rule_mask = (try get "rmask" with Exit -> -1);
          }
        in
        if p.Gen.nodes >= 1 && p.Gen.n_users >= 1 then Some p else None
      with _ -> None)
  | _ -> None

let describe m =
  Printf.sprintf "%s [%s]\n  %s\n  %s" m.check (config_name m.config)
    (repro_line m.params) m.detail

let replay_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fails = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           match parse_repro line with
           | None -> ()
           | Some p -> (
               match check_all p with
               | None -> ()
               | Some m -> fails := (!lineno, describe m) :: !fails)
         done
       with End_of_file -> ());
      List.rev !fails)

let write_corpus ~dir m =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let sanitize s =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c | _ -> '-')
      s
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "case-%d-%s.seed" m.params.Gen.seed (sanitize m.check))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "# %s [%s]\n# %s\n%s\n" m.check (config_name m.config)
        (String.concat " " (String.split_on_char '\n' m.detail))
        (repro_line m.params));
  path
