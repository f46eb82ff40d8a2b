(** A simulated block device: in-memory pages with faithful accounting of
    reads, writes and a synthetic latency model, so the paper's I/O
    claims (§3.3, §3.4) are measured rather than asserted — plus a
    modeled fault layer (per-page CRC32C verified on read, and
    PRNG-driven injection of transient read errors, permanent bad pages,
    torn writes and bit flips) so the storage stack above can be tested
    for fail-secure behavior.

    Thread-safety: {!read}, {!write}, {!allocate}, {!mark_bad},
    {!clear_bad} and {!is_bad} are serialized by an internal mutex, so
    one disk can be shared by the private buffer pools that the
    [Serve] worker domains read through.
    Configuration setters ({!set_fault_plan}, {!set_verify_reads}) and
    {!reset_stats} are for quiescent use between runs.  Events bump
    plain {!stats} fields; the registry learns them by {!fold_metrics}. *)

type fault_kind =
  | Transient_read  (** the read failed but a retry may succeed *)
  | Bad_page  (** the page is permanently unreadable/unwritable *)
  | Checksum_mismatch  (** stored bytes do not match the recorded CRC32C *)

val fault_kind_name : fault_kind -> string

exception Fault of { page : int; kind : fault_kind }

(** A reproducible failure schedule.  All probabilities are per-I/O and
    drawn from [fault_prng]; see {!fault_plan} for defaults (all 0). *)
type fault_plan = {
  fault_prng : Dolx_util.Prng.t;
  transient_read_p : float;  (** per read: raise [Transient_read] *)
  torn_write_p : float;  (** per write: persist only a random prefix *)
  bit_flip_p : float;  (** per write: flip one random stored bit *)
  bad_page_p : float;  (** per write: page goes permanently bad after *)
}

val fault_plan :
  ?transient_read_p:float ->
  ?torn_write_p:float ->
  ?bit_flip_p:float ->
  ?bad_page_p:float ->
  Dolx_util.Prng.t ->
  fault_plan

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable allocations : int;
  mutable transient_faults : int;  (** injected transient read errors *)
  mutable torn_writes : int;  (** injected torn writes *)
  mutable bit_flips : int;  (** injected bit flips *)
  mutable checksum_failures : int;  (** reads rejected by CRC verification *)
  mutable versions_saved : int;  (** page images retained for pinned epochs *)
  mutable versions_retired : int;  (** retained images dropped at the horizon *)
}

type t

(** [read_cost_us]/[write_cost_us]: simulated microseconds charged per
    page I/O (defaults 100/120, SSD-like).  [crc_cost_us] (default 2.0,
    hardware-CRC32C-like for a 4K page) is charged per verified read;
    [verify_reads] (default [true]) controls whether reads verify the
    per-page checksum at all. *)
val create :
  ?page_size:int ->
  ?read_cost_us:float ->
  ?write_cost_us:float ->
  ?crc_cost_us:float ->
  ?verify_reads:bool ->
  unit ->
  t

val page_size : t -> int

val page_count : t -> int

(** The epoch clock of this device.  Readers pin it to get a stable
    image; writers advance it when they publish an update (see
    {!Epoch}). *)
val epoch : t -> Epoch.t

val stats : t -> stats

(** Accumulated simulated I/O time in microseconds. *)
val simulated_us : t -> float

(** Share of {!simulated_us} spent verifying page checksums. *)
val crc_us : t -> float

(** Add what {!stats} and the two clocks gained since the last fold to
    the [disk.*] registry instruments, and move the marks forward.
    Serialized with I/O, so readers sharing the disk may fold from any
    domain. *)
val fold_metrics : t -> unit

(** Fold, then zero [reads], [writes], [transient_faults],
    [torn_writes], [bit_flips], [checksum_failures], {!simulated_us} and
    {!crc_us}.  The lifetime counts [allocations], [versions_saved] and
    [versions_retired] keep their values.  Every mark then equals its
    field, so the next fold reports only events after the reset. *)
val reset_stats : t -> unit

(** Install ([Some]) or clear ([None]) the failure schedule.  Pages that
    already went permanently bad stay bad. *)
val set_fault_plan : t -> fault_plan option -> unit

(** Toggle read-time checksum verification (for overhead A/B runs). *)
val set_verify_reads : t -> bool -> unit

(** Make a page permanently bad (reads and writes raise [Bad_page]).
    @raise Invalid_argument on an out-of-range id. *)
val mark_bad : t -> int -> unit

(** Undo {!mark_bad} / an injected bad page — the "sector remapped"
    event of a fault schedule; lets tests drive recovery after a write
    failure.  No-op when the page is not bad. *)
val clear_bad : t -> int -> unit

val is_bad : t -> int -> bool

(** Allocate a fresh zeroed page; returns its id. *)
val allocate : t -> int

(** The image of page [id], verified against its checksum.  With
    [?epoch], the image that was live at that (pinned) epoch: superseded
    images come from the copy-on-write version chain, verified against
    the checksum they had when retained.

    Images are immutable once installed, so the checksum is computed on
    an image's first clean read only; later reads of the same image are
    still counted and charged ([reads], {!simulated_us}, {!crc_us}) and
    still draw transient faults, exactly as a verifying read.  The
    result is shared with the disk and with every other reader: callers
    that need a mutable buffer copy it.
    @raise Fault on a bad page, an injected transient error, or a
    checksum mismatch (torn write or bit rot detected).
    @raise Invalid_argument on an out-of-range id (the message names the
    page id and the page count). *)
val read : ?epoch:int -> t -> int -> Page.t

(** Write the first page-size bytes of [src] to page [id] by installing
    a fresh image ([src] is copied, never retained).  The CRC of the
    intended image is always recorded; an injected torn write (the old
    image with a random prefix of [src]) or bit flip corrupts the
    installed image without touching it, so damage surfaces on the next
    verified read.
    While any epoch is pinned, the image being replaced is retained by
    reference on the page's version chain (copy-on-write) so pinned
    readers keep a consistent view; see {!retire}.
    @raise Fault when the page is permanently bad.
    @raise Invalid_argument on an out-of-range id. *)
val write : t -> int -> Page.t -> unit

(** Drop retained page versions no reader can reach any more (those
    whose visibility ends at or below {!Epoch.horizon}); returns the
    number dropped.  Called by the store after each publish and each
    reader release. *)
val retire : t -> int

(** Number of page versions currently retained for pinned readers. *)
val live_versions : t -> int
