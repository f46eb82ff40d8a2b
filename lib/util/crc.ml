(** CRC32C (Castagnoli) checksums, table-driven, no dependencies.

    Shared by every on-disk format in the repository: the simulated
    disk's per-page checksums, the [Dolx_core.Persist] DOL blobs and the
    [Dolx_core.Db_file] section/journal checksums all use this code so a
    single implementation is exercised (and fuzzed) everywhere.

    CRC32C rather than CRC32: the Castagnoli polynomial has better error
    detection for the short-burst corruptions a torn page write produces,
    and is what real storage stacks (iSCSI, ext4, Btrfs) checksum with. *)

(* Reflected Castagnoli polynomial. *)
let poly = 0x82F63B78

(* Slicing-by-8 tables, flat: entry [k * 256 + b] is the CRC register
   after byte [b] followed by [k] zero bytes, so slice 0 is the classic
   byte-at-a-time table and eight loads advance the register over eight
   input bytes at once.  Built eagerly (16 KiB, microseconds) rather than
   lazily: OCaml 5 raises when two domains force one lazy value at once,
   and disk reads verify from several domains. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- (c lsr 8) lxor t.(c land 0xFF)
  done;
  t

let get32 buf i = Int32.to_int (Bytes.get_int32_le buf i) land 0xFFFFFFFF

(** Checksum of [len] bytes of [buf] starting at [pos]: eight bytes per
    step through the sliced tables, then byte-at-a-time for the tail.
    Bit-identical to the byte-at-a-time CRC32C.
    @raise Invalid_argument on an out-of-range slice. *)
let digest_sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc.digest_sub";
  (* every index below is a byte masked to 0..255 plus a slice offset *)
  let t k b = Array.unsafe_get tables ((k lsl 8) lor b) in
  let crc = ref 0xFFFFFFFF in
  let stop8 = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < stop8 do
    let lo = !crc lxor get32 buf !i and hi = get32 buf (!i + 4) in
    crc :=
      t 7 (lo land 0xFF)
      lxor t 6 ((lo lsr 8) land 0xFF)
      lxor t 5 ((lo lsr 16) land 0xFF)
      lxor t 4 (lo lsr 24)
      lxor t 3 (hi land 0xFF)
      lxor t 2 ((hi lsr 8) land 0xFF)
      lxor t 1 ((hi lsr 16) land 0xFF)
      lxor t 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc := t 0 ((!crc lxor Bytes.get_uint8 buf j) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(** Checksum of a whole byte buffer. *)
let digest buf = digest_sub buf ~pos:0 ~len:(Bytes.length buf)

(** Checksum of a string. *)
let digest_string s = digest (Bytes.unsafe_of_string s)
