(** Fixed-width bitsets.

    ACLs are bit-vectors with one bit per access-control subject (paper
    §2.1: "each codebook entry is an access control list, which we present
    as a bit vector with one bit for each access control subject").  They
    are treated as immutable once interned, so equality and hashing must be
    by value. *)

type t = { width : int; words : int array }

let words_for width = (width + 62) / 63

let create width =
  if width < 0 then invalid_arg "Bitset.create";
  { width; words = Array.make (max 1 (words_for width)) 0 }

let width t = t.width

let copy t = { width = t.width; words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of range"

let get t i =
  check_index t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

(** In-place set; only used during construction before interning. *)
let set t i b =
  check_index t i;
  let w = i / 63 and m = 1 lsl (i mod 63) in
  if b then t.words.(w) <- t.words.(w) lor m
  else t.words.(w) <- t.words.(w) land lnot m

(** Functional update: a fresh bitset with bit [i] set to [b]. *)
let with_bit t i b =
  let u = copy t in
  set u i b;
  u

(* Plain loops: polymorphic [=] on [int array] and a closure through
   [Array.iter] would put every codebook insert and lookup through
   [compare_val] and an indirect call. *)
let equal a b =
  a == b
  || a.width = b.width
     &&
     let wa = a.words and wb = b.words in
     let n = Array.length wa in
     n = Array.length wb
     &&
     let i = ref 0 in
     while !i < n && Array.unsafe_get wa !i = Array.unsafe_get wb !i do
       incr i
     done;
     !i = n

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t =
  let h = ref (t.width * 0x9e3779b1) in
  let w = t.words in
  for i = 0 to Array.length w - 1 do
    h := (!h * 31) lxor Array.unsafe_get w i
  done;
  !h land max_int

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  (* 63-bit words: a simple SWAR popcount *)
  ignore go;
  let w = w - ((w lsr 1) land 0x5555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(** All bits in [0, width) set. *)
let full width =
  let t = create width in
  for i = 0 to width - 1 do
    set t i true
  done;
  t

let union a b =
  if a.width <> b.width then invalid_arg "Bitset.union: width mismatch";
  { width = a.width; words = Array.init (Array.length a.words) (fun i -> a.words.(i) lor b.words.(i)) }

let inter a b =
  if a.width <> b.width then invalid_arg "Bitset.inter: width mismatch";
  { width = a.width; words = Array.init (Array.length a.words) (fun i -> a.words.(i) land b.words.(i)) }

let diff a b =
  if a.width <> b.width then invalid_arg "Bitset.diff: width mismatch";
  { width = a.width; words = Array.init (Array.length a.words) (fun i -> a.words.(i) land lnot b.words.(i)) }

(** Grow to a larger width, new bits cleared.  Used when a new subject is
    added to the system (paper §3.4: "adding an additional column to each
    entry in the in-memory codebook"). *)
let resize t new_width =
  if new_width < t.width then invalid_arg "Bitset.resize: cannot shrink";
  let u = create new_width in
  Array.blit t.words 0 u.words 0 (Array.length t.words);
  u

(** Remove bit position [i], shifting higher subject bits down by one.
    Used on subject deletion. *)
let remove_bit t i =
  check_index t i;
  let u = create (t.width - 1) in
  for j = 0 to t.width - 1 do
    if j < i then (if get t j then set u j true)
    else if j > i then if get t j then set u (j - 1) true
  done;
  u

let iter_set f t =
  for i = 0 to t.width - 1 do
    if get t i then f i
  done

let to_list t =
  let acc = ref [] in
  for i = t.width - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc

let of_list width l =
  let t = create width in
  List.iter (fun i -> set t i true) l;
  t

let pp ppf t =
  for i = 0 to t.width - 1 do
    Fmt.char ppf (if get t i then '1' else '0')
  done

let to_string t = Fmt.str "%a" pp t

(** Bytes needed to store one ACL of this width (one bit per subject),
    matching the paper's space accounting. *)
let storage_bytes t = (t.width + 7) / 8

(** {1 Byte images}

    Bit [i] is bit [i mod 8] of byte [i / 8], little-endian.  Eight
    bytes hold 64 consecutive bits, so a writer moves eight bytes per
    step, and a reader one; bits that straddle two 63-bit words take
    their high part from the next. *)

let write_bytes t buf pos =
  let nbytes = (t.width + 7) / 8 in
  if pos < 0 || pos + nbytes > Bytes.length buf then invalid_arg "Bitset.write_bytes";
  let words = t.words in
  let last = Array.length words - 1 in
  let word i = if i <= last then Array.unsafe_get words i else 0 in
  (* Eight bytes at a time: bits [64j, 64j + 64) are the top of word
     [w] from bit [off] (63 - off bits) and the bottom of word [w + 1]. *)
  let chunks = nbytes / 8 in
  for j = 0 to chunks - 1 do
    let w = 64 * j / 63 and off = 64 * j mod 63 in
    let lo = Int64.logand (Int64.of_int (word w lsr off)) Int64.max_int in
    let hi = Int64.shift_left (Int64.of_int (word (w + 1))) (63 - off) in
    Bytes.set_int64_le buf (pos + (8 * j)) (Int64.logor lo hi)
  done;
  (* the tail, a byte at a time *)
  for k = 8 * chunks to nbytes - 1 do
    let w = 8 * k / 63 and off = 8 * k mod 63 in
    (* bits past the width are clear, so a straddling high part is too *)
    let v = (word w lsr off) lor (if off > 55 then word (w + 1) lsl (63 - off) else 0) in
    Bytes.unsafe_set buf (pos + k) (Char.unsafe_chr (v land 0xff))
  done

let of_bytes ~width buf pos =
  let t = create width in
  let words = t.words in
  let nbytes = (width + 7) / 8 in
  for k = 0 to nbytes - 1 do
    let v = Bytes.get_uint8 buf (pos + k) in
    (* drop the junk bits past the width in the last byte *)
    let v = if k = nbytes - 1 then v land ((1 lsl (width - (8 * k))) - 1) else v in
    if v <> 0 then begin
      let w = (8 * k) / 63 and off = (8 * k) mod 63 in
      words.(w) <- words.(w) lor (v lsl off);
      if off > 55 then begin
        let hi = v lsr (63 - off) in
        if hi <> 0 then words.(w + 1) <- words.(w + 1) lor hi
      end
    end
  done;
  t
