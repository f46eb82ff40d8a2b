(** The DOL codebook: dictionary compression of access control lists.

    "Each distinct access control list that appears in the secured tree is
    recorded once in a codebook… With each transition node in the DOL we
    record a reference to the appropriate access control list in the code
    book" (paper §2.1).  The codebook is kept in memory (§3.2).

    Codes are dense ints.  Entries are never removed (subject deletion
    shrinks their width instead, and "any such redundancy can be
    corrected lazily", §3.4).

    Layout: one flat matrix, code [c]'s bits at bytes
    [[c * stride, (c + 1) * stride)] with [stride = ⌈width / 8⌉] — the
    persisted entry layout of {!Bitset.write_bytes} (bit [s] is bit
    [s mod 8] of byte [s / 8]), so a load and a save are one copy each.
    Bits past the width are kept clear, so equal ACLs have equal rows. *)

module Bitset = Dolx_util.Bitset
module Metrics = Dolx_obs.Metrics

type code = int

let g_resident_bytes = Metrics.gauge "codebook.resident_bytes"

let g_indexed_entries = Metrics.gauge "codebook.indexed_entries"

(* The intern index: open addressing with linear probing over a
   power-of-two [int array].  A slot is 0 when empty, otherwise
   [((code + 1) lsl tag_bits) lor tag], where the tag is 16 bits of the
   row's hash that the slot position does not use; a probe compares
   tags first and reads the matrix only on a tag match. *)
type index = { mutable slots : int array; mutable used : int }

let tag_bits = 16

let tag_mask = (1 lsl tag_bits) - 1

type t = {
  mutable width : int;  (* number of subjects *)
  mutable stride : int;  (* bytes per entry *)
  mutable count : int;
  mutable capacity : int;  (* entries the matrix has room for *)
  (* Grown by doubling and published whole, so an evaluator domain on a
     snapshot reads either matrix: rows below its codes' [count] are
     never rewritten by {!intern}.  Width changes replace it too. *)
  rows : Bytes.t Atomic.t;
  (* Built by the first {!intern} and kept in step by later ones;
     [None] after construction, loads, copies and width changes. *)
  mutable index : index option;
}

let stride_of width = (width + 7) / 8

let index_bytes t =
  match t.index with Some ix -> Sys.word_size / 8 * Array.length ix.slots | None -> 0

(** Bytes the book holds resident: the matrix at its capacity plus the
    intern index's slots. *)
let resident_bytes t = Bytes.length (Atomic.get t.rows) + index_bytes t

(** Entries in the intern index: 0 until the first {!intern}. *)
let indexed_entries t = match t.index with Some ix -> ix.used | None -> 0

let publish_gauges t =
  Metrics.gauge_set g_resident_bytes (float_of_int (resident_bytes t));
  Metrics.gauge_set g_indexed_entries (float_of_int (indexed_entries t))

(* A book over [rows] holding [count] entries, room for [capacity]. *)
let make ~width ~count ~capacity rows =
  let t =
    { width; stride = stride_of width; count; capacity; rows = Atomic.make rows; index = None }
  in
  publish_gauges t;
  t

let create ~width =
  if width < 0 then invalid_arg "Codebook.create: negative width";
  make ~width ~count:0 ~capacity:8 (Bytes.make (8 * stride_of width) '\000')

let width t = t.width

(** Number of codebook entries (the paper's Fig. 5 metric). *)
let count t = t.count

(** An independent copy of the entries, with no intern index.  This is
    the copy-on-write step for subject addition/removal under snapshot
    isolation: a store changes the copy's width and swaps it into the
    live DOL, leaving snapshot holders on the old book.  Plain interning
    needs no copy — it is append-only and never disturbs existing
    rows. *)
let copy t =
  make ~width:t.width ~count:t.count ~capacity:t.count
    (Bytes.sub (Atomic.get t.rows) 0 (t.count * t.stride))

(** {1 Rows} *)

let mix h w =
  let h = (h lxor w) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Hash of the [len]-byte row at [b.[off]], eight bytes per step. *)
let hash_row b off len =
  let h = ref (mix 0x9e3779b1 len) in
  let i = ref 0 in
  while !i + 8 <= len do
    h := mix !h (Int64.to_int (Bytes.get_int64_le b (off + !i)));
    i := !i + 8
  done;
  while !i < len do
    h := mix !h (Bytes.get_uint8 b (off + !i));
    incr i
  done;
  !h lxor (!h lsr 32)

let rows_equal a aoff b boff len =
  let i = ref 0 in
  while
    !i + 8 <= len
    && (Bytes.get_int64_le a (aoff + !i) : int64) = Bytes.get_int64_le b (boff + !i)
  do
    i := !i + 8
  done;
  while !i < len && Bytes.get_uint8 a (aoff + !i) = Bytes.get_uint8 b (boff + !i) do
    incr i
  done;
  !i >= len

let slot_code s = (s lsr tag_bits) - 1

(* The slot holding the row of [rows] equal to the [stride] bytes at
   [b.[off]] (hash [h]), or the empty slot where it would go. *)
let probe ix rows stride h b off =
  let slots = ix.slots in
  let mask = Array.length slots - 1 in
  let tag = (h lsr 32) land tag_mask in
  let i = ref (h land mask) in
  let continue = ref true in
  while !continue do
    let s = Array.unsafe_get slots !i in
    if s = 0 || (s land tag_mask = tag && rows_equal rows (slot_code s * stride) b off stride)
    then continue := false
    else i := (!i + 1) land mask
  done;
  !i

let slots_for n =
  (* at most three quarters full *)
  let rec go size = if 3 * size >= 4 * n then size else go (2 * size) in
  Array.make (go 64) 0

(* Store code [c] (hash [h]) in the empty slot [i], doubling the index
   past three quarters full; [rows] holds every indexed row. *)
let fill ix rows stride i h c =
  ix.slots.(i) <- ((c + 1) lsl tag_bits) lor ((h lsr 32) land tag_mask);
  ix.used <- ix.used + 1;
  if 4 * ix.used > 3 * Array.length ix.slots then begin
    let old = ix.slots in
    let slots = slots_for (2 * ix.used) in
    let mask = Array.length slots - 1 in
    Array.iter
      (fun s ->
        if s <> 0 then begin
          let i = ref (hash_row rows (slot_code s * stride) stride land mask) in
          while Array.unsafe_get slots !i <> 0 do
            i := (!i + 1) land mask
          done;
          slots.(!i) <- s
        end)
      old;
    ix.slots <- slots
  end

(* An index over the first [count] rows, in ascending code order: a
   duplicate row keeps its lowest code (the state subject removal
   leaves until [Update.compact]). *)
let index_rows rows stride count =
  let ix = { slots = slots_for count; used = 0 } in
  for c = 0 to count - 1 do
    let off = c * stride in
    let h = hash_row rows off stride in
    let i = probe ix rows stride h rows off in
    if ix.slots.(i) = 0 then fill ix rows stride i h c
  done;
  ix

(* The book's index, built on first use. *)
let intern_index t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = index_rows (Atomic.get t.rows) t.stride t.count in
      t.index <- Some ix;
      publish_gauges t;
      ix

(* Append the row image [img] as code [t.count]. *)
let push_row t img =
  if t.count >= t.capacity then begin
    let capacity = max 8 (2 * t.capacity) in
    let rows = Bytes.make (capacity * t.stride) '\000' in
    Bytes.blit (Atomic.get t.rows) 0 rows 0 (t.count * t.stride);
    Atomic.set t.rows rows;
    t.capacity <- capacity
  end;
  let c = t.count in
  Bytes.blit img 0 (Atomic.get t.rows) (c * t.stride) t.stride;
  t.count <- c + 1;
  c

(* Intern the row image [img] (bits past the width clear). *)
let intern_row t img =
  let ix = intern_index t in
  let h = hash_row img 0 t.stride in
  let i = probe ix (Atomic.get t.rows) t.stride h img 0 in
  let s = ix.slots.(i) in
  if s <> 0 then slot_code s
  else begin
    let c = push_row t img in
    fill ix (Atomic.get t.rows) t.stride i h c;
    publish_gauges t;
    c
  end

(** Intern an ACL, returning its code: one probe, and on a miss one
    appended row.  The first call builds the index. *)
let intern t bits =
  if Bitset.width bits <> t.width then invalid_arg "Codebook.intern: width mismatch";
  let img = Bytes.create t.stride in
  Bitset.write_bytes bits img 0;
  intern_row t img

(** {1 Construction from existing entries} *)

(* A book of [count] rows written by [write rows stride], with room for
   no more. *)
let build ~width ~count write =
  let stride = stride_of width and capacity = max 1 count in
  let rows = Bytes.make (capacity * stride) '\000' in
  write rows stride;
  make ~width ~count ~capacity rows

(** The codebook whose code [c] is ACL [ids.(c)] of [store].  Distinct
    ids hold distinct bitsets ({!Dolx_policy.Acl.intern} hash-conses),
    so the rows are distinct; the ids themselves are checked distinct,
    which costs an int compare per id, not a hash.  Rows are written in
    ascending id order, the order the store allocated its bitsets in, so
    the reads walk memory forward. *)
let of_acls store ids =
  let module Acl = Dolx_policy.Acl in
  let code_of = Array.make (Acl.count store) (-1) in
  Array.iteri
    (fun c id ->
      if code_of.(id) >= 0 then invalid_arg "Codebook.of_acls: repeated ACL id";
      code_of.(id) <- c)
    ids;
  build ~width:(Acl.width store) ~count:(Array.length ids) (fun rows stride ->
      Array.iteri
        (fun id c -> if c >= 0 then Bitset.write_bytes (Acl.get store id) rows (c * stride))
        code_of)

(** The codebook whose code [c] is [entries.(c)], keeping every index
    even when an equal entry already exists (subject removals leave such
    duplicates until [Update.compact]). *)
let of_entries ~width entries =
  build ~width ~count:(Array.length entries) (fun rows stride ->
      Array.iteri
        (fun c bits ->
          if Bitset.width bits <> width then invalid_arg "Codebook.of_entries: width mismatch";
          Bitset.write_bytes bits rows (c * stride))
        entries)

(** The codebook of [count] rows in the persisted layout at [buf.[pos]],
    copied verbatim; bits of each row's last byte past [width] are
    cleared. *)
let of_bytes ~width ~count buf pos =
  let stride = stride_of width in
  if width < 0 || count < 0 || pos < 0 || pos + (count * stride) > Bytes.length buf then
    invalid_arg "Codebook.of_bytes";
  build ~width ~count (fun rows stride ->
      Bytes.blit buf pos rows 0 (count * stride);
      if width land 7 <> 0 then begin
        let keep = (1 lsl (width land 7)) - 1 in
        for c = 0 to count - 1 do
          let k = (c * stride) + stride - 1 in
          Bytes.set_uint8 rows k (Bytes.get_uint8 rows k land keep)
        done
      end)

(** Append every entry, in code order, in the persisted layout. *)
let write_bytes t buf = Buffer.add_subbytes buf (Atomic.get t.rows) 0 (t.count * t.stride)

(** {1 Lookup} *)

let check_code t c = if c < 0 || c >= t.count then invalid_arg "Codebook.get: unknown code"

(* Bit [s] of the row at [rows.[off]]. *)
let row_bit rows off s = Bytes.get_uint8 rows (off + (s lsr 3)) land (1 lsl (s land 7)) <> 0

let get t c =
  check_code t c;
  Bitset.of_bytes ~width:t.width (Atomic.get t.rows) (c * t.stride)

(** "The s-th bit in that code book entry indicates the accessibility of
    the node for subject s" (§3.3): one byte load from the matrix. *)
let grants t c subject =
  let rows = Atomic.get t.rows in
  check_code t c;
  if subject < 0 || subject >= t.width then invalid_arg "Codebook.grants: unknown subject";
  row_bit rows (c * t.stride) subject

let iter_changes t subject codes f =
  if subject < 0 || subject >= t.width then invalid_arg "Codebook.iter_changes: unknown subject";
  let rows = Atomic.get t.rows and stride = t.stride in
  let prev = ref false in
  for i = 0 to Array.length codes - 1 do
    let c = Array.unsafe_get codes i in
    check_code t c;
    let b = row_bit rows (c * stride) subject in
    if b <> !prev then begin
      f i;
      prev := b
    end
  done

(** Code for the ACL equal to entry [c] with [subject]'s bit set to [b]. *)
let with_bit t c subject b =
  if grants t c subject = b then c
  else begin
    let img = Bytes.sub (Atomic.get t.rows) (c * t.stride) t.stride in
    let k = subject lsr 3 and m = 1 lsl (subject land 7) in
    let v = Bytes.get_uint8 img k in
    Bytes.set_uint8 img k (if b then v lor m else v land lnot m);
    intern_row t img
  end

(** {1 Subject columns (§3.4)} *)

(* Replace the matrix by one of [width]'s stride, row [c] written by
   [fill src soff dst doff]; the index is dropped, not rebuilt. *)
let rewrite t ~width fill =
  let stride = stride_of width in
  let src = Atomic.get t.rows in
  let dst = Bytes.make (max 1 t.count * stride) '\000' in
  for c = 0 to t.count - 1 do
    fill src (c * t.stride) dst (c * stride)
  done;
  t.width <- width;
  t.stride <- stride;
  t.capacity <- max 1 t.count;
  Atomic.set t.rows dst;
  t.index <- None;
  publish_gauges t

(** Add a new subject column.  If [like] is given, the new subject's
    rights are initialized to match that existing subject's (paper §3.4:
    "add a new subject … whose access rights initially match those of some
    existing subject … by simply adding an additional column to each entry
    in the in-memory codebook"). *)
let add_subject t ?like () =
  let s = t.width in
  (match like with
  | Some l when l < 0 || l >= s -> invalid_arg "Codebook.add_subject: unknown subject"
  | _ -> ());
  let old_stride = t.stride in
  rewrite t ~width:(s + 1) (fun src soff dst doff ->
      (* the new bit lies past the old width, where rows are clear *)
      Bytes.blit src soff dst doff old_stride;
      match like with
      | Some l when row_bit src soff l ->
          let k = doff + (s lsr 3) in
          Bytes.set_uint8 dst k (Bytes.get_uint8 dst k lor (1 lsl (s land 7)))
      | _ -> ());
  s

(** Drop a subject column.  This may leave duplicate entries ("unnecessary
    codes embedded in the structural data", §3.4) — they are kept, and the
    index, rebuilt by the next {!intern}, maps each ACL to the lowest code
    carrying it, so future interning converges lazily. *)
let remove_subject t subject =
  if subject < 0 || subject >= t.width then invalid_arg "Codebook.remove_subject";
  let old_stride = t.stride in
  let width = t.width - 1 in
  let ks = subject lsr 3 and low = (1 lsl (subject land 7)) - 1 in
  rewrite t ~width (fun src soff dst doff ->
      let byte k = if k < old_stride then Bytes.get_uint8 src (soff + k) else 0 in
      (* bits above [subject] move down one; bits past the old width
         are clear, so the new row's are too *)
      for k = 0 to stride_of width - 1 do
        let v =
          if k < ks then byte k
          else
            let shifted = (byte k lsr 1) lor ((byte (k + 1) land 1) lsl 7) in
            if k = ks then (byte k land low) lor (shifted land lnot low) else shifted
        in
        Bytes.set_uint8 dst (doff + k) v
      done)

(** Number of duplicate (redundant) entries after subject removals,
    counted over a scratch index (the book's own is left as it is). *)
let redundant_entries t = t.count - (index_rows (Atomic.get t.rows) t.stride t.count).used

(** Bytes to store the codebook: one bit per subject per entry, as in the
    paper's accounting ("at 1000 bytes per codebook entry — one bit per
    subject for all 8000 subjects", §5.1). *)
let storage_bytes t = t.count * t.stride

(** Bytes needed for one embedded code reference given the current number
    of entries (the paper assumes "each DOL transition node requires a
    2 byte access control code (for the 4000 codebook entries)"). *)
let code_bytes t =
  let rec go bytes cap = if cap >= t.count then bytes else go (bytes + 1) (cap * 256) in
  go 1 256

let iter f t =
  for c = 0 to t.count - 1 do
    f c (get t c)
  done
