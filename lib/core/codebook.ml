(** The DOL codebook: dictionary compression of access control lists.

    "Each distinct access control list that appears in the secured tree is
    recorded once in a codebook… With each transition node in the DOL we
    record a reference to the appropriate access control list in the code
    book" (paper §2.1).  The codebook is kept in memory (§3.2).

    Codes are dense ints.  The codebook owns its ACL bit-vectors; entries
    are never removed (subject deletion shrinks their width instead, and
    "any such redundancy can be corrected lazily", §3.4). *)

module Bitset = Dolx_util.Bitset

type code = int

module Tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

type t = {
  mutable entries : Bitset.t array;
  mutable codes : code Tbl.t;
  mutable count : int;
  mutable width : int; (* number of subjects *)
  (* Per-subject decoded column: byte [c] is non-zero iff entry [c]
     grants the subject, so the ACCESS check of Algorithm 1 is a single
     byte load instead of a bit extraction behind two bounds checks.
     Built lazily per subject; a slice shorter than [count] simply means
     codes interned since it was built miss to the slow path, which
     extends it.  [Atomic]
     gives publication safety when evaluator domains share the book;
     subject addition/removal (single-threaded maintenance phases)
     reallocate the array wholesale. *)
  mutable slices : Bytes.t Atomic.t array;
}

let make_slices width = Array.init width (fun _ -> Atomic.make Bytes.empty)

let create ~width =
  {
    entries = Array.make 8 (Bitset.create width);
    codes = Tbl.create 64;
    count = 0;
    width;
    slices = make_slices width;
  }

let width t = t.width

(** An independent copy sharing the (immutable) ACL bit-vectors.  This is
    the copy-on-write step for subject addition/removal under snapshot
    isolation: width changes rewrite every entry in place (and removal
    shifts subject indices), so a store mutates a copy and swaps it into
    the live DOL, leaving snapshot holders on the old book.  Plain
    interning needs no copy — it is append-only and never disturbs
    existing entries. *)
let copy t =
  {
    entries = Array.copy t.entries;
    codes = Tbl.copy t.codes;
    count = t.count;
    width = t.width;
    slices = make_slices t.width;
  }

(** Number of codebook entries (the paper's Fig. 5 metric). *)
let count t = t.count

(* Store [bits] as code [t.count], growing the entry array by doubling. *)
let push_entry t bits =
  if t.count >= Array.length t.entries then begin
    let entries = Array.make (max 8 (2 * Array.length t.entries)) bits in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  let c = t.count in
  t.entries.(c) <- bits;
  t.count <- c + 1;
  c

(** Intern an ACL, returning its code: one lookup, and on a miss one
    insert. *)
let intern t bits =
  if Bitset.width bits <> t.width then invalid_arg "Codebook.intern: width mismatch";
  match Tbl.find_opt t.codes bits with
  | Some c -> c
  | None ->
      let c = push_entry t bits in
      Tbl.add t.codes bits c;
      c

(* The table for a codebook of [count] entries, at the bucket count
   interning them one by one into [create]'s 64 buckets would grow it
   to (the least power of two [>= count / 2]), so no insert resizes it. *)
let table_for count = Tbl.create (max 64 ((count + 1) / 2))

(* A codebook holding [entries] (owned) verbatim, code [c] = entry [c]. *)
let of_table ~width entries codes =
  let count = Array.length entries in
  {
    entries = (if count = 0 then Array.make 8 (Bitset.create width) else entries);
    codes;
    count;
    width;
    slices = make_slices width;
  }

(** The codebook whose code [c] is ACL [ids.(c)] of [store].  Distinct
    ids hold distinct bitsets ({!Dolx_policy.Acl.intern} hash-conses),
    so each entry goes into the table with one insert and no lookup;
    the ids themselves are checked distinct, which costs an int compare
    per id, not a hash. *)
let of_acls store ids =
  let module Acl = Dolx_policy.Acl in
  let seen = Bytes.make (Acl.count store) '\000' in
  let entries =
    Array.map
      (fun id ->
        let bits = Acl.get store id in
        if Bytes.get seen id <> '\000' then invalid_arg "Codebook.of_acls: repeated ACL id";
        Bytes.set seen id '\001';
        bits)
      ids
  in
  let codes = table_for (Array.length entries) in
  Array.iteri (fun c bits -> Tbl.add codes bits c) entries;
  of_table ~width:(Acl.width store) entries codes

(** The codebook whose code [c] is [entries.(c)], keeping every index
    even when an equal entry already exists.  Persistence uses this to
    reconstruct a codebook that legally holds duplicates after subject
    removals (§3.4 keeps them until {!Update.compact}); the intern
    table maps each ACL to its lowest code, so interning converges
    lazily.  One lookup, then one insert, per entry. *)
let of_entries ~width entries =
  let codes = table_for (Array.length entries) in
  Array.iteri
    (fun c bits ->
      if Bitset.width bits <> width then invalid_arg "Codebook.of_entries: width mismatch";
      if not (Tbl.mem codes bits) then Tbl.add codes bits c)
    entries;
  of_table ~width entries codes

let get t c =
  if c < 0 || c >= t.count then invalid_arg "Codebook.get: unknown code";
  t.entries.(c)

(* Extend [subject]'s slice to [count] entries and publish it.  Interning
   never rewrites an existing entry and width changes reset the slices
   wholesale, so the old prefix stays valid: only the codes interned
   since it was decoded are decoded now. *)
let extend_slice t subject =
  let cell = t.slices.(subject) in
  let old = Atomic.get cell in
  let count = t.count in
  let have = Bytes.length old in
  let b = Bytes.make count '\000' in
  Bytes.blit old 0 b 0 have;
  for c = have to count - 1 do
    if Bitset.get t.entries.(c) subject then Bytes.unsafe_set b c '\001'
  done;
  Atomic.set cell b

(** "The s-th bit in that code book entry indicates the accessibility of
    the node for subject s" (§3.3).  Served from the subject's decoded
    slice — one byte load on the hot path. *)
let grants t c subject =
  if subject >= 0 && subject < Array.length t.slices then begin
    let b = Atomic.get t.slices.(subject) in
    if c >= 0 && c < Bytes.length b && c < t.count then
      Bytes.unsafe_get b c <> '\000'
    else begin
      (* slow path: validate [c] exactly as before, then extend the
         column so later lookups for this subject hit *)
      let r = Bitset.get (get t c) subject in
      extend_slice t subject;
      r
    end
  end
  else Bitset.get (get t c) subject

(** Code for the ACL equal to entry [c] with [subject]'s bit set to [b]. *)
let with_bit t c subject b =
  let bits = get t c in
  if Bitset.get bits subject = b then c else intern t (Bitset.with_bit bits subject b)

(** Add a new subject column.  If [like] is given, the new subject's
    rights are initialized to match that existing subject's (paper §3.4:
    "add a new subject … whose access rights initially match those of some
    existing subject … by simply adding an additional column to each entry
    in the in-memory codebook"). *)
let add_subject t ?like () =
  let new_width = t.width + 1 in
  let fresh = Tbl.create (2 * t.count) in
  for c = 0 to t.count - 1 do
    let old_bits = t.entries.(c) in
    let bits = Bitset.resize old_bits new_width in
    let bits =
      match like with
      | Some s when Bitset.get old_bits s -> Bitset.with_bit bits t.width true
      | _ -> bits
    in
    t.entries.(c) <- bits;
    (* Distinct old entries stay distinct after adding a column. *)
    Tbl.replace fresh bits c
  done;
  t.codes <- fresh;
  t.width <- new_width;
  t.slices <- make_slices new_width;
  t.width - 1

(** Drop a subject column.  This may leave duplicate entries ("unnecessary
    codes embedded in the structural data", §3.4) — they are kept, and the
    intern table maps each ACL to the lowest code carrying it, so future
    interning converges lazily. *)
let remove_subject t subject =
  if subject < 0 || subject >= t.width then invalid_arg "Codebook.remove_subject";
  let new_width = t.width - 1 in
  let fresh = Tbl.create (2 * t.count) in
  for c = t.count - 1 downto 0 do
    let bits = Bitset.remove_bit t.entries.(c) subject in
    t.entries.(c) <- bits;
    Tbl.replace fresh bits c
  done;
  t.codes <- fresh;
  t.width <- new_width;
  t.slices <- make_slices new_width

(** Number of duplicate (redundant) entries after subject removals. *)
let redundant_entries t =
  let seen = Tbl.create (2 * t.count) in
  let dup = ref 0 in
  for c = 0 to t.count - 1 do
    if Tbl.mem seen t.entries.(c) then incr dup
    else Tbl.replace seen t.entries.(c) ()
  done;
  !dup

(** Bytes to store the codebook: one bit per subject per entry, as in the
    paper's accounting ("at 1000 bytes per codebook entry — one bit per
    subject for all 8000 subjects", §5.1). *)
let storage_bytes t = t.count * ((t.width + 7) / 8)

(** Bytes needed for one embedded code reference given the current number
    of entries (the paper assumes "each DOL transition node requires a
    2 byte access control code (for the 4000 codebook entries)"). *)
let code_bytes t =
  let rec go bytes cap = if cap >= t.count then bytes else go (bytes + 1) (cap * 256) in
  go 1 256

let iter f t =
  for c = 0 to t.count - 1 do
    f c t.entries.(c)
  done
