(** Serialization of DOLs (codebook + transition list) to bytes.

    DOL is "disk-oriented" (paper §1); the page-embedded codes live in
    the {!Secure_store} layout, but the codebook and the logical
    transition list also need a durable form — for shipping a secured
    document to another site (dissemination), for restarting, and for
    the streaming filter.  Format v2 (little-endian):

    {v
      magic   "DOLX"            4 bytes
      version u8                = 2
      width   varint            subjects per ACL
      nnodes  varint
      ncodes  varint            codebook entries
      entries ncodes * ceil(width/8) bytes, entry order = code order
      ntrans  varint
      trans   ntrans * (varint delta_pre, varint code)
      crc     u32               CRC32C over all preceding bytes
    v}

    Transition preorders are delta-encoded: sorted ascending, the paper's
    structural locality makes the deltas small, so they varint-compress
    well.

    This is an access-control artifact, so [of_bytes] treats its input as
    untrusted: the trailing checksum is verified before anything is
    parsed, every varint is bounds- and overflow-checked, and counts are
    sanity-capped against the input length — any malformed input raises
    {!Corrupt}, never [Invalid_argument] or an out-of-bounds error. *)

module Varint = Dolx_util.Varint
module Crc = Dolx_util.Crc

let magic = "DOLX"

let version = 2

exception Corrupt of string

(** Serialize a DOL (body only, no trailing CRC) into [buf]. *)
let write_body buf (dol : Dol.t) =
  let cb = Dol.codebook dol in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  let tmp = Bytes.create Varint.max_len in
  let add_varint x =
    let len = Varint.write tmp 0 x in
    Buffer.add_subbytes buf tmp 0 len
  in
  add_varint (Codebook.width cb);
  add_varint (Dol.n_nodes dol);
  add_varint (Codebook.count cb);
  Codebook.write_bytes cb buf;
  let pres = dol.Dol.trans_pre and codes = dol.Dol.trans_code in
  add_varint (Array.length pres);
  let prev = ref 0 in
  Array.iteri
    (fun i pre ->
      add_varint (pre - !prev);
      add_varint codes.(i);
      prev := pre)
    pres

(** Serialize a DOL. *)
let to_bytes (dol : Dol.t) =
  let buf = Buffer.create 1024 in
  write_body buf dol;
  let body = Buffer.to_bytes buf in
  let out = Bytes.create (Bytes.length body + 4) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bytes.set_int32_le out (Bytes.length body) (Int32.of_int (Crc.digest body));
  out

(* Parse the body of a checksummed blob: bytes [0, limit) of [buf].
   Shared with Db_file, whose journal embeds a DOL body. *)
let of_body buf ~limit =
  let pos = ref 0 in
  let need n =
    if n < 0 || !pos + n > limit then raise (Corrupt "truncated input")
  in
  need 5;
  if Bytes.sub_string buf 0 4 <> magic then raise (Corrupt "bad magic");
  if Bytes.get_uint8 buf 4 <> version then raise (Corrupt "unsupported version");
  pos := 5;
  let read_varint () =
    match Varint.read_opt buf ~pos:!pos ~limit with
    | None -> raise (Corrupt "bad varint")
    | Some (x, p) ->
        pos := p;
        x
  in
  let width = read_varint () in
  let n_nodes = read_varint () in
  let n_codes = read_varint () in
  if width < 0 || n_nodes <= 0 || n_codes <= 0 then raise (Corrupt "bad header");
  let entry_bytes = (width + 7) / 8 in
  (* Cap the counts by what a book can hold (a width-0 entry has no
     bytes, so the bytes left bound nothing there) and by what the
     remaining bytes could possibly hold, before allocating anything
     proportional to them. *)
  if n_codes > Codebook.max_count then raise (Corrupt "bad header");
  if entry_bytes > 0 && n_codes > (limit - !pos) / entry_bytes then
    raise (Corrupt "truncated input");
  need (n_codes * entry_bytes);
  (* verbatim, not interned: duplicate entries are a legal state after
     subject removals (cleaned lazily by Update.compact), and embedded
     codes reference entry indices *)
  let cb = Codebook.of_bytes ~width ~count:n_codes buf !pos in
  pos := !pos + (n_codes * entry_bytes);
  let n_trans = read_varint () in
  if n_trans <= 0 then raise (Corrupt "no transitions");
  if n_trans > (limit - !pos) / 2 then raise (Corrupt "truncated input");
  let pres = Array.make n_trans 0 in
  let codes = Array.make n_trans 0 in
  let prev = ref 0 in
  for i = 0 to n_trans - 1 do
    let delta = read_varint () in
    let code = read_varint () in
    if code >= n_codes then raise (Corrupt "dangling code");
    let pre = !prev + delta in
    if (i = 0 && pre <> 0) || (i > 0 && delta = 0) || pre >= n_nodes then
      raise (Corrupt "bad transition order");
    pres.(i) <- pre;
    codes.(i) <- code;
    prev := pre
  done;
  if !pos <> limit then raise (Corrupt "trailing garbage");
  { Dol.codebook = cb; trans_pre = pres; trans_code = codes; n_nodes;
    generation = 0 }

(** Deserialize.  @raise Corrupt on malformed input. *)
let of_bytes buf =
  let len = Bytes.length buf in
  if len < 4 then raise (Corrupt "truncated input");
  let body_len = len - 4 in
  let stored = Int32.to_int (Bytes.get_int32_le buf body_len) land 0xFFFFFFFF in
  if Crc.digest_sub buf ~pos:0 ~len:body_len <> stored then
    raise (Corrupt "checksum mismatch");
  of_body buf ~limit:body_len

(** File convenience.  Channels are closed even when serialization or
    parsing raises. *)
let save path dol =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc (to_bytes dol))

let load path =
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
  of_bytes buf

(** Serialized size in bytes, without materializing. *)
let serialized_bytes dol = Bytes.length (to_bytes dol)
