(** Single-file database format: a complete secured store — page images,
    node values, tag names and the DOL — in one file, so a labeled
    document compiled once can be opened again (or shipped) without the
    source XML or the policy.

    Structure and values are stored separately, as in the paper's NoK
    storage ("the structure of the data tree is stored separately from
    the node values", §3.1): the page images carry structure + embedded
    access-control codes; a value section carries the text content.

    Format v2.  Every section is length-prefixed and carries a CRC32C so
    integrity is verified {e before} any byte is parsed; page images are
    checksummed individually so corruption is localized to a page; a
    journal region at the tail makes multi-page accessibility updates
    atomic (see below).

    {v
      file := "DOLXDB" u8(version=2)
              section(meta):     varint page_size
                                 varint n_tags (len-prefixed names, id order)
              section(dol):      Persist body (no trailing CRC of its own)
              varint n_pages
              n_pages * { page_size bytes image, u32 CRC32C }
              section(texts):    varint n_texts
                                 pairs: varint preorder, len-prefixed text
                                 (only non-empty texts are stored)
              section(registry): u8 has_registry
                                 if 1: subjects + modes (see docs/FORMAT.md)
              journal:           u8 flag (0 = none)
                                 if 1: record+
              record :=          varint payload_len, payload,
                                 u32 CRC32C(payload), u8 0xC3

      section(x) := varint body_len, body, u32 CRC32C(body)

      journal payload := varint new_n_pages
                         varint n_entries
                         n_entries * (varint lp, page_size bytes image)
                         varint dol_len, Persist body
    v}

    {b Journal protocol} (write-ahead redo): an update that touches
    several label pages is made durable by appending the new page images
    and the new DOL as a journal record, sealed by the CRC and the 0xC3
    commit mark, to an otherwise {e unmodified} base file.  The journal
    region holds a {e sequence} of such records — group commit
    ({!append_update}, [Dolx_core.Group_commit]) batches several updates
    into one file write by appending one record per update.  On load,
    records are rolled forward in order; the first record that is not
    sealed (flag byte with no payload, a torn payload prefix, a bad CRC,
    a missing commit mark) ends the scan and the tail is ignored — every
    batch prefix is an expected crash artifact, yielding exactly the
    state as of the last committed record.  Recovery therefore never
    observes a hybrid of two updates' labels.

    {b Fail-secure recovery}: a page image whose checksum does not
    verify is unrecoverable label data.  By default loading fails
    ([`Fail]); with [`Deny_subtree] the affected preorder range is
    replaced by structural filler labeled with a deny-all code and
    reported as quarantined — recovery may lose data but must never
    grant access the intact file would not have granted. *)

module Tree = Dolx_xml.Tree
module Tag = Dolx_xml.Tag
module Disk = Dolx_storage.Disk
module Nok_layout = Dolx_storage.Nok_layout
module Page = Dolx_storage.Page
module Varint = Dolx_util.Varint
module Crc = Dolx_util.Crc
module Bitset = Dolx_util.Bitset
module Prng = Dolx_util.Prng
module Metrics = Dolx_obs.Metrics

let c_journal_writes = Metrics.counter "db.journal_writes"

let c_journal_bytes = Metrics.counter "db.journal_bytes"

let magic = "DOLXDB"

let version = 2

let commit_mark = 0xC3

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let add_varint buf x =
  let tmp = Bytes.create Varint.max_len in
  let len = Varint.write tmp 0 x in
  Buffer.add_subbytes buf tmp 0 len

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_u32 buf x = Buffer.add_int32_le buf (Int32.of_int x)

(* Length-prefixed, checksummed section: the CRC covers the body and is
   verified before the body is parsed. *)
let add_section buf body =
  add_varint buf (Bytes.length body);
  Buffer.add_bytes buf body;
  add_u32 buf (Crc.digest body)

module Subject = Dolx_policy.Subject
module Mode = Dolx_policy.Mode

(** {1 Writing} *)

let registry_body ?subjects ?modes () =
  let buf = Buffer.create 256 in
  (match subjects with
  | None -> Buffer.add_uint8 buf 0
  | Some registry ->
      Buffer.add_uint8 buf 1;
      add_varint buf (Subject.count registry);
      for sid = 0 to Subject.count registry - 1 do
        add_string buf (Subject.name registry sid);
        Buffer.add_uint8 buf
          (match Subject.kind registry sid with
          | Subject.User -> 0
          | Subject.Group -> 1);
        let groups = Subject.direct_groups registry sid in
        add_varint buf (List.length groups);
        List.iter (add_varint buf) groups
      done;
      (match modes with
      | None -> add_varint buf 0
      | Some m ->
          add_varint buf (Mode.count m);
          for i = 0 to Mode.count m - 1 do
            add_string buf (Mode.name m i)
          done));
  Buffer.to_bytes buf

(** Serialize a store.  Buffered pages are flushed first so the images
    reflect all applied updates; the written file is clean (no journal),
    so the layout's dirty-page tracking is drained too.  Passing the
    [subjects]/[modes] registries makes the file self-describing: tools
    can then address ACL bits by name. *)
let to_bytes ?subjects ?modes store =
  Dolx_storage.Buffer_pool.flush_all (Secure_store.pool store);
  ignore (Nok_layout.drain_dirty (Secure_store.layout store));
  let tree = Secure_store.tree store in
  let layout = Secure_store.layout store in
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  (* meta *)
  let meta = Buffer.create 256 in
  add_varint meta (Disk.page_size (Secure_store.disk store));
  let table = Tree.tag_table tree in
  add_varint meta (Tag.count table);
  Tag.iter (fun _ name -> add_string meta name) table;
  add_section buf (Buffer.to_bytes meta);
  (* dol *)
  let dol_body = Buffer.create 1024 in
  Persist.write_body dol_body (Secure_store.dol store);
  add_section buf (Buffer.to_bytes dol_body);
  (* pages, individually checksummed *)
  add_varint buf (Nok_layout.page_count layout);
  for lp = 0 to Nok_layout.page_count layout - 1 do
    let img = Nok_layout.page_image layout lp in
    Buffer.add_bytes buf img;
    add_u32 buf (Crc.digest img)
  done;
  (* texts *)
  let texts_body = Buffer.create 1024 in
  let texts = ref [] in
  let n_texts = ref 0 in
  Tree.iter
    (fun v ->
      let txt = Tree.text tree v in
      if txt <> "" then begin
        texts := (v, txt) :: !texts;
        incr n_texts
      end)
    tree;
  add_varint texts_body !n_texts;
  List.iter
    (fun (v, txt) ->
      add_varint texts_body v;
      add_string texts_body txt)
    (List.rev !texts);
  add_section buf (Buffer.to_bytes texts_body);
  (* registry *)
  add_section buf (registry_body ?subjects ?modes ());
  (* no journal *)
  Buffer.add_uint8 buf 0;
  Buffer.to_bytes buf

(** {1 Reading} *)

(* Bounds-checked reader over untrusted bytes; every failure is a typed
   [Corrupt], never [Invalid_argument] or an out-of-bounds access. *)
module R = struct
  type t = {
    buf : Bytes.t;
    mutable pos : int;
    limit : int;
    mutable what : string;
  }

  let make ?(pos = 0) ?limit ~what buf =
    let limit = match limit with Some l -> l | None -> Bytes.length buf in
    { buf; pos; limit; what }

  let need r n =
    if n < 0 || r.pos + n > r.limit then corrupt "%s: truncated" r.what

  let u8 r =
    need r 1;
    let b = Bytes.get_uint8 r.buf r.pos in
    r.pos <- r.pos + 1;
    b

  let u32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v

  let varint r =
    match Varint.read_opt r.buf ~pos:r.pos ~limit:r.limit with
    | None -> corrupt "%s: bad varint" r.what
    | Some (x, p) ->
        r.pos <- p;
        x

  let bytes r n =
    need r n;
    let b = Bytes.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    b

  let string r =
    let len = varint r in
    need r len;
    let s = Bytes.sub_string r.buf r.pos len in
    r.pos <- r.pos + len;
    s

  let at_end r = r.pos = r.limit

  (* Read a section: length-prefixed body whose CRC is verified before
     the caller parses a single body byte. *)
  let section r ~what =
    let saved = r.what in
    r.what <- what;
    let body = bytes r (varint r) in
    let crc = u32 r in
    r.what <- saved;
    if Crc.digest body <> crc then corrupt "%s: section checksum mismatch" what;
    make ~what body
end

let parse_meta r =
  let page_size = R.varint r in
  if page_size < 64 then corrupt "meta: bad page size";
  let n_tags = R.varint r in
  let table = Tag.create () in
  for _ = 1 to n_tags do
    ignore (Tag.intern table (R.string r))
  done;
  if not (R.at_end r) then corrupt "meta: trailing garbage";
  (page_size, table)

let parse_dol (r : R.t) =
  try Persist.of_body r.R.buf ~limit:r.R.limit
  with Persist.Corrupt m -> corrupt "dol: %s" m

let parse_texts r ~n_nodes =
  let n_texts = R.varint r in
  let texts = Array.make n_nodes "" in
  for _ = 1 to n_texts do
    let v = R.varint r in
    if v < 0 || v >= n_nodes then corrupt "texts: text for unknown node";
    texts.(v) <- R.string r
  done;
  if not (R.at_end r) then corrupt "texts: trailing garbage";
  texts

let parse_registry r =
  match R.u8 r with
  | 0 ->
      if not (R.at_end r) then corrupt "registry: trailing garbage";
      None
  | 1 ->
      let n_subjects = R.varint r in
      let registry = Subject.create () in
      let memberships = ref [] in
      for sid = 0 to n_subjects - 1 do
        let name = R.string r in
        let kind =
          match R.u8 r with
          | 0 -> Subject.User
          | 1 -> Subject.Group
          | _ -> corrupt "registry: bad subject kind"
        in
        (try ignore (Subject.add registry ~name ~kind)
         with Invalid_argument m -> corrupt "registry: %s" m);
        let n_groups = R.varint r in
        for _ = 1 to n_groups do
          memberships := (sid, R.varint r) :: !memberships
        done
      done;
      List.iter
        (fun (child, group) ->
          if group < 0 || group >= n_subjects then
            corrupt "registry: membership out of range";
          try Subject.add_membership registry ~child ~group
          with Invalid_argument m -> corrupt "registry: %s" m)
        (List.rev !memberships);
      let n_modes = R.varint r in
      let modes = Mode.create () in
      for _ = 1 to n_modes do
        try ignore (Mode.add modes (R.string r))
        with Invalid_argument m -> corrupt "registry: %s" m
      done;
      if not (R.at_end r) then corrupt "registry: trailing garbage";
      Some (registry, modes)
  | _ -> corrupt "registry: bad flag"

(* Defensive phase-1 scan of the journal region starting at the flag
   byte.  The region holds a sequence of records (group commit appends
   one per update); committed records — CRC-valid payloads sealed by the
   commit mark — are returned in order.  The first record that fails to
   seal ends the scan and the tail is ignored: every prefix of a record
   batch is an expected crash artifact, never [Corrupt].  Interior
   inconsistencies of a {e sealed} record still raise. *)
let parse_journal r ~page_size =
  if R.at_end r then [] (* file truncated right before the flag *)
  else
    match R.u8 r with
    | 0 ->
        if not (R.at_end r) then corrupt "journal: trailing garbage";
        []
    | 1 ->
        (* Sealed by CRC + commit mark: interior inconsistencies are no
           longer crash artifacts and must raise. *)
        let parse_payload payload =
          let j = R.make ~what:"journal" payload in
          let new_n_pages = R.varint j in
          let n_entries = R.varint j in
          if new_n_pages <= 0 || n_entries < 0 then corrupt "journal: bad counts";
          let entries =
            List.init n_entries (fun _ ->
                let lp = R.varint j in
                let img = R.bytes j page_size in
                (lp, img))
          in
          let dol_len = R.varint j in
          let dol_body = R.bytes j dol_len in
          if not (R.at_end j) then corrupt "journal: trailing garbage";
          let dol =
            try Persist.of_body dol_body ~limit:(Bytes.length dol_body)
            with Persist.Corrupt m -> corrupt "journal dol: %s" m
          in
          (new_n_pages, entries, dol)
        in
        let rec records acc =
          if R.at_end r then List.rev acc
          else
            match
              (* any structural shortfall below = torn record, not
                 Corrupt: stop and ignore the tail *)
              let payload_len =
                match Varint.read_opt r.R.buf ~pos:r.R.pos ~limit:r.R.limit with
                | None -> raise Exit
                | Some (x, p) ->
                    r.R.pos <- p;
                    x
              in
              if payload_len < 0 || r.R.pos + payload_len + 5 > r.R.limit then
                raise Exit;
              let payload = R.bytes r payload_len in
              let crc = R.u32 r in
              if Crc.digest payload <> crc then raise Exit;
              if R.u8 r <> commit_mark then raise Exit;
              payload
            with
            | exception Exit -> List.rev acc
            | payload -> records (parse_payload payload :: acc)
        in
        records []
    | _ -> corrupt "journal: bad flag"

(* Roll a committed journal forward over the base page images.  Returns
   the patched image array and which of them are still unverified
   (journaled images are covered by the journal CRC, so they are good).
   When the page count changed (a split renumbered the layout), the
   journal must carry every page. *)
let apply_journal ~images ~bad (new_n_pages, entries, dol) =
  let base_n = Array.length images in
  if new_n_pages = base_n then begin
    List.iter
      (fun (lp, img) ->
        if lp < 0 || lp >= base_n then corrupt "journal: page %d out of range" lp;
        images.(lp) <- img;
        bad.(lp) <- false)
      entries;
    (images, bad, dol)
  end
  else begin
    let images' = Array.make new_n_pages Bytes.empty in
    let seen = Array.make new_n_pages false in
    List.iter
      (fun (lp, img) ->
        if lp < 0 || lp >= new_n_pages then
          corrupt "journal: page %d out of range" lp;
        images'.(lp) <- img;
        seen.(lp) <- true)
      entries;
    if not (Array.for_all Fun.id seen) then
      corrupt "journal: page count changed but journal does not cover all pages";
    (images', Array.make new_n_pages false, dol)
  end

(* Fail-secure quarantine synthesis: replace each maximal run of
   checksum-failed pages by filler records carrying a deny-all code.

   Walking the good pages gives, at each bad run, the preorder and depth
   the run must start at and the preorder/depth of the first node after
   it; the run is filled with a descending chain (closes = 0) whose last
   node closes exactly enough parens to land on the next good page's
   depth, so the structure outside the run is preserved node-for-node.
   The affected preorder range is reported for [Secure_store] to deny. *)
let synthesize_quarantine ~images ~bad ~page_size ~dol ~n_tags =
  let n = Array.length images in
  let n_nodes = Dol.n_nodes dol in
  if n_tags <= 0 then corrupt "pages: corrupt pages and no tags to recover with";
  let cb = Dol.codebook dol in
  let deny = Codebook.intern cb (Bitset.create (Codebook.width cb)) in
  let out = ref [] (* reversed good + synthesized images *) in
  let quarantine = ref [] in
  let n_so_far = ref 0 in
  let depth_next = ref 0 in
  (* Pack a run of k filler nodes starting at [pre0]/[d0], total closes
     on the last node, into fresh page images. *)
  let emit_run ~pre0 ~d0 ~k ~total_closes =
    let budget = page_size in
    let i = ref 0 in
    while !i < k do
      let first = !i in
      let bytes_used = ref Nok_layout.header_bytes in
      let recs = ref [] in
      let continue = ref true in
      while !continue && !i < k do
        let r =
          {
            Nok_layout.pre = pre0 + !i;
            tag = 0;
            closes = (if !i = k - 1 then total_closes else 0);
            code = None;
          }
        in
        let rb = Nok_layout.record_bytes r in
        if !bytes_used + rb > budget && !recs <> [] then continue := false
        else begin
          recs := r :: !recs;
          bytes_used := !bytes_used + rb;
          incr i
        end
      done;
      let recs = List.rev !recs in
      let page = Page.create page_size in
      Nok_layout.encode_records page ~n:(List.length recs)
        ~first_pre:(pre0 + first) ~first_code:deny ~first_depth:(d0 + first)
        ~change:false recs;
      out := page :: !out
    done
  in
  let lp = ref 0 in
  while !lp < n do
    if not bad.(!lp) then begin
      let img = images.(!lp) in
      let hdr_ok =
        Bytes.length img = page_size
        && Page.get_u16 img 0 > 0
        && Page.get_u32 img 2 = !n_so_far
      in
      if not hdr_ok then corrupt "pages: inconsistent page %d after recovery" !lp;
      let records =
        try Nok_layout.decode_image img
        with _ -> corrupt "pages: undecodable page %d after recovery" !lp
      in
      let d = ref (Page.get_u16 img 10) in
      List.iter (fun r -> d := !d + 1 - r.Nok_layout.closes) records;
      depth_next := !d;
      n_so_far := !n_so_far + List.length records;
      out := img :: !out;
      incr lp
    end
    else begin
      let d_start = !depth_next in
      let pre0 = !n_so_far in
      while !lp < n && bad.(!lp) do
        incr lp
      done;
      let k, d_next =
        if !lp < n then
          let img = images.(!lp) in
          if Bytes.length img <> page_size then
            corrupt "pages: inconsistent page %d after recovery" !lp
          else (Page.get_u32 img 2 - pre0, Page.get_u16 img 10)
        else (n_nodes - pre0, 0)
      in
      let total_closes = d_start + k - d_next in
      if k <= 0 || total_closes < 0 then
        corrupt "pages: unrecoverable corruption (cannot rebalance lost range)";
      emit_run ~pre0 ~d0:d_start ~k ~total_closes;
      quarantine := (pre0, pre0 + k - 1) :: !quarantine;
      n_so_far := pre0 + k;
      depth_next := d_next
    end
  done;
  if !n_so_far <> n_nodes then
    corrupt "pages: structure / DOL size mismatch after recovery";
  (Array.of_list (List.rev !out), List.rev !quarantine)

(** Load a store from bytes.

    [on_bad_page] selects the recovery policy for page images whose
    checksum does not verify: [`Fail] (default) raises [Corrupt] naming
    the pages; [`Deny_subtree] replaces the lost preorder ranges with
    deny-all filler and reports them via {!Secure_store.quarantined}.
    A journal sealed by its CRC and commit mark is rolled forward;
    any torn journal is ignored (the load yields the pre-update state).
    @raise Corrupt on malformed input — never [Invalid_argument] or an
    out-of-bounds error. *)
let of_bytes ?pool_capacity ?(on_bad_page = `Fail) buf =
  let r = R.make ~what:"db" buf in
  let hdr = R.bytes r (String.length magic + 1) in
  if Bytes.sub_string hdr 0 (String.length magic) <> magic then
    corrupt "bad magic";
  if Bytes.get_uint8 hdr (String.length magic) <> version then
    corrupt "unsupported version";
  let page_size, table = parse_meta (R.section r ~what:"meta") in
  let dol = parse_dol (R.section r ~what:"dol") in
  let n_pages = R.varint r in
  if n_pages <= 0 then corrupt "no pages";
  if n_pages > (r.R.limit - r.R.pos) / (page_size + 4) then
    corrupt "pages: truncated";
  let images = Array.make n_pages Bytes.empty in
  let bad = Array.make n_pages false in
  for lp = 0 to n_pages - 1 do
    let img = R.bytes r page_size in
    let crc = R.u32 r in
    images.(lp) <- img;
    bad.(lp) <- Crc.digest img <> crc
  done;
  let texts = parse_texts (R.section r ~what:"texts") ~n_nodes:(Dol.n_nodes dol) in
  let registry = parse_registry (R.section r ~what:"registry") in
  (* Journal before damage assessment: a committed record may rewrite
     the very pages whose base images are corrupt.  Records are rolled
     forward in order; replay is idempotent because each record carries
     whole page images and the full DOL (pure redo). *)
  let images, bad, dol =
    List.fold_left
      (fun (images, bad, _dol) j -> apply_journal ~images ~bad j)
      (images, bad, dol)
      (parse_journal r ~page_size)
  in
  let images, quarantine =
    if Array.exists Fun.id bad then
      match on_bad_page with
      | `Fail ->
          let pages =
            Array.to_list bad
            |> List.mapi (fun lp b -> if b then Some (string_of_int lp) else None)
            |> List.filter_map Fun.id
            |> String.concat ", "
          in
          corrupt "page image checksum mismatch (pages %s)" pages
      | `Deny_subtree ->
          synthesize_quarantine ~images ~bad ~page_size ~dol
            ~n_tags:(Tag.count table)
    else (images, [])
  in
  let n_pages = Array.length images in
  let disk = Disk.create ~page_size () in
  Array.iter
    (fun img ->
      let pid = Disk.allocate disk in
      Disk.write disk pid img)
    images;
  let layout =
    try Nok_layout.attach disk ~n_pages
    with Invalid_argument m | Failure m -> corrupt "%s" m
  in
  (* rebuild structure from the pages, then attach the values *)
  let skeleton =
    let pool = Dolx_storage.Buffer_pool.create ~capacity:8 disk in
    (* no store handle owns this pool, so fold its counts here *)
    Fun.protect ~finally:(fun () -> Dolx_storage.Buffer_pool.fold_metrics pool)
    @@ fun () ->
    try Nok_layout.decode_tree layout pool ~tag_table:table
    with Invalid_argument m | Failure m -> corrupt "pages: %s" m
  in
  if Tree.size skeleton <> Dol.n_nodes dol then
    corrupt "structure / DOL size mismatch";
  (* replay the skeleton with texts to get the full tree *)
  let tree =
    try
      let b = Tree.Builder.create ~table () in
      let rec copy v =
        ignore (Tree.Builder.open_element b (Tree.tag_name skeleton v));
        if texts.(v) <> "" then Tree.Builder.add_text b texts.(v);
        Tree.iter_children copy skeleton v;
        Tree.Builder.close_element b
      in
      copy Tree.root;
      Tree.Builder.finish b
    with Invalid_argument m | Failure m -> corrupt "pages: %s" m
  in
  let store =
    try
      Secure_store.assemble ?pool_capacity ~quarantine ~tree ~dol ~disk ~layout
        ()
    with Invalid_argument m -> corrupt "%s" m
  in
  (store, registry)

(** {1 Journaled updates}

    [update_images ~base f] loads the clean image [base], applies the
    update [f], and returns the durable byte images a crashing writer
    could leave behind, in order: the untouched base (crash before the
    journal write), torn journal prefixes, the full journal without its
    commit mark, and finally the committed image.  Every image loads:
    all but the last yield exactly the pre-update state, the last yields
    exactly the post-update state.  [torn] adds PRNG-chosen extra tear
    points.  The committed image is last, so
    [List.nth images (List.length images - 1)] is the update's durable
    result (see {!apply_update}). *)
(* Flush buffered pages and drain the layout's dirty tracking into one
   journal-record payload; [None] when no page changed (the [`Clean]
   drain — dol-only changes are not journaled, matching the historical
   single-record behavior). *)
let update_payload store =
  Dolx_storage.Buffer_pool.flush_all (Secure_store.pool store);
  let layout = Secure_store.layout store in
  match Nok_layout.drain_dirty layout with
  | `Clean -> None
  | (`Pages _ | `Renumbered) as dirty ->
      let entries =
        match dirty with
        | `Pages lps -> lps
        | `Renumbered -> List.init (Nok_layout.page_count layout) Fun.id
      in
      let payload = Buffer.create 4096 in
      add_varint payload (Nok_layout.page_count layout);
      add_varint payload (List.length entries);
      List.iter
        (fun lp ->
          add_varint payload lp;
          Buffer.add_bytes payload (Nok_layout.page_image layout lp))
        entries;
      let dol_body = Buffer.create 1024 in
      Persist.write_body dol_body (Secure_store.dol store);
      add_varint payload (Buffer.length dol_body);
      Buffer.add_buffer payload dol_body;
      Some (Buffer.to_bytes payload)

let update_images ?pool_capacity ?torn ~base f =
  let base_len = Bytes.length base in
  if base_len = 0 || Bytes.get_uint8 base (base_len - 1) <> 0 then
    invalid_arg "Db_file.update_images: base image is not clean (has a journal)";
  let store, _registry = of_bytes ?pool_capacity base in
  f store;
  match update_payload store with
  | None -> [ base ]
  | Some payload ->
      Metrics.incr c_journal_writes;
      Metrics.add c_journal_bytes (Bytes.length payload);
      (* stem = base minus its trailing journal flag byte *)
      let journal = Buffer.create (Bytes.length payload + 16) in
      Buffer.add_subbytes journal base 0 (base_len - 1);
      Buffer.add_uint8 journal 1;
      add_varint journal (Bytes.length payload);
      Buffer.add_bytes journal payload;
      add_u32 journal (Crc.digest payload);
      let uncommitted = Buffer.to_bytes journal in
      Buffer.add_uint8 journal commit_mark;
      let committed = Buffer.to_bytes journal in
      let flagged = Bytes.sub committed 0 base_len in
      let tears =
        let span = Bytes.length uncommitted - base_len in
        let mid = Bytes.sub committed 0 (base_len + (span / 2)) in
        match torn with
        | None -> [ mid ]
        | Some prng ->
            mid
            :: List.init 3 (fun _ ->
                   Bytes.sub committed 0 (base_len + 1 + Prng.int prng span))
      in
      (base :: flagged :: tears) @ [ uncommitted; committed ]

(** Apply an update durably: journal it, then compact by loading the
    committed image (exercising roll-forward) and rewriting a clean
    file.  The registries embedded in [base], if any, are re-embedded. *)
let apply_update ?pool_capacity ~base f =
  let images = update_images ?pool_capacity ~base f in
  let committed = List.nth images (List.length images - 1) in
  let store, registry = of_bytes ?pool_capacity committed in
  match registry with
  | None -> to_bytes store
  | Some (subjects, modes) -> to_bytes ~subjects ~modes store

(** Append one update to [image] as a journal record, without
    compacting: the group-commit building block.  [image] may be clean
    (its trailing flag byte is flipped to 1 and the record appended) or
    already journaled (the record is purely appended), so successive
    appends chain — each result is a byte prefix of the next, and a
    crash that tears the file anywhere inside the appended region loads
    as the state after some {e prefix} of the batch.  Replay is
    idempotent: records are pure redo (whole page images + full DOL).
    Compact with {!apply_update} / {!to_bytes} when the batch is done.
    @raise Invalid_argument when [image] is neither clean nor
    journaled. *)
let append_update ?pool_capacity ~image f =
  let len = Bytes.length image in
  if len = 0 then invalid_arg "Db_file.append_update: empty image";
  let last = Bytes.get_uint8 image (len - 1) in
  if last <> 0 && last <> commit_mark then
    invalid_arg "Db_file.append_update: image is neither clean nor journaled";
  let store, _registry = of_bytes ?pool_capacity image in
  f store;
  match update_payload store with
  | None -> image
  | Some payload ->
      Metrics.incr c_journal_writes;
      Metrics.add c_journal_bytes (Bytes.length payload);
      let buf = Buffer.create (len + Bytes.length payload + 16) in
      if last = 0 then begin
        (* clean image: flip the journal flag, then the first record *)
        Buffer.add_subbytes buf image 0 (len - 1);
        Buffer.add_uint8 buf 1
      end
      else Buffer.add_bytes buf image;
      add_varint buf (Bytes.length payload);
      Buffer.add_bytes buf payload;
      add_u32 buf (Crc.digest payload);
      Buffer.add_uint8 buf commit_mark;
      Buffer.to_bytes buf

(** Byte extent [(offset, length)] of logical page [lp]'s image + CRC
    inside a database image — for corruption-injection tests.
    @raise Corrupt when the prefix up to the page array is malformed or
    [lp] is out of range. *)
let page_extent buf lp =
  let r = R.make ~what:"db" buf in
  let hdr = R.bytes r (String.length magic + 1) in
  if Bytes.sub_string hdr 0 (String.length magic) <> magic then
    corrupt "bad magic";
  if Bytes.get_uint8 hdr (String.length magic) <> version then
    corrupt "unsupported version";
  let page_size, _ = parse_meta (R.section r ~what:"meta") in
  let (_ : Dol.t) = parse_dol (R.section r ~what:"dol") in
  let n_pages = R.varint r in
  if lp < 0 || lp >= n_pages then
    corrupt "page_extent: page %d out of range (page count %d)" lp n_pages;
  let off = r.R.pos + (lp * (page_size + 4)) in
  R.need r ((lp + 1) * (page_size + 4));
  (off, page_size + 4)

(** File convenience.  Channels are closed even when serialization or
    parsing raises. *)
let save ?subjects ?modes path store =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc (to_bytes ?subjects ?modes store))

let load ?pool_capacity ?on_bad_page path =
  let ic = open_in_bin path in
  let buf =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let buf = Bytes.create n in
        really_input ic buf 0 n;
        buf)
  in
  of_bytes ?pool_capacity ?on_bad_page buf
