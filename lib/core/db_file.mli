(** Single-file database format v2: page images + node values + tag
    names + DOL in one file — compile a labeled document once, open or
    ship it without the source XML or the policy.  Optionally
    self-describing: the subject registry and mode names can be embedded
    so ACL bits are addressable by name.

    Robustness (see docs/FORMAT.md for the exact layout):
    - every section carries a CRC32C verified {e before} parsing; page
      images are checksummed individually;
    - a write-ahead journal region makes multi-page accessibility
      updates atomic: a load sees exactly the pre-update or exactly the
      post-update labeling, never a hybrid;
    - recovery from unrecoverable page corruption is fail-secure: the
      affected preorder range can be quarantined (denied for every
      subject), never silently granted;
    - {!of_bytes} treats input as untrusted and raises only {!Corrupt}
      on malformed bytes. *)

exception Corrupt of string

(** Serialize a store (buffered pages are flushed and the layout's
    dirty-page tracking drained first).  The result is a clean image —
    its journal region is empty. *)
val to_bytes :
  ?subjects:Dolx_policy.Subject.registry -> ?modes:Dolx_policy.Mode.registry ->
  Secure_store.t -> Bytes.t

(** Load a store; also returns the embedded registries when present.

    [on_bad_page] selects the policy for page images whose checksum does
    not verify: [`Fail] (default) raises [Corrupt] naming the pages;
    [`Deny_subtree] replaces each lost run with structural filler
    carrying a deny-all code and reports the preorder ranges via
    {!Secure_store.quarantined} — data may be lost, access is never
    gained.  The journal region holds a sequence of records (group
    commit appends one per update); records sealed by their CRC and
    commit mark are rolled forward in order, and the first torn record
    (crash artifact) ends the scan — the load yields the state as of the
    last committed record.
    @raise Corrupt on malformed input — never [Invalid_argument] or an
    out-of-bounds error. *)
val of_bytes :
  ?pool_capacity:int -> ?on_bad_page:[ `Fail | `Deny_subtree ] -> Bytes.t ->
  Secure_store.t * (Dolx_policy.Subject.registry * Dolx_policy.Mode.registry) option

(** [update_images ~base f] loads the clean image [base], applies the
    update [f] to the store, and returns every durable image a crash
    during the journaled commit could leave behind, in write order:
    the untouched base, the journal flag alone, torn journal prefixes
    (plus [torn]-PRNG-chosen extra tear points), the sealed journal
    without its commit mark, and last the committed image.  Every image
    loads via {!of_bytes}; all but the last yield exactly the pre-update
    state, the last exactly the post-update state.  When [f] changed
    nothing, the result is [[base]].
    @raise Invalid_argument when [base] is not a clean image. *)
val update_images :
  ?pool_capacity:int -> ?torn:Dolx_util.Prng.t -> base:Bytes.t ->
  (Secure_store.t -> unit) -> Bytes.t list

(** Apply an update durably: load [base] once, apply [f], journal it,
    and compact the updated store to a clean image.  Registries embedded
    in [base] are re-embedded.
    @raise Invalid_argument when [base] is not a clean image. *)
val apply_update :
  ?pool_capacity:int -> base:Bytes.t -> (Secure_store.t -> unit) -> Bytes.t

(** [add_update buf store f] applies [f] to [store] and appends [f]'s
    journal record to the image held in [buf] — no load, and no copy of
    the image: a commit group holds its image in one buffer, appends a
    batch's records to it and materializes it once per flush
    ([Dolx_core.Group_commit]).  [store] must be the state the image
    loads as (a store loaded from it, changed since only through this
    function).  A record carries every page [f] dirtied and the DOL; an
    update that changed only the DOL (a subject added or removed) gets a
    record with no page.  When [f] changed nothing, [buf] is unchanged.
    When [f] raises, [buf] is unchanged, and [store] may hold part of
    its effect and must be reloaded from the image.
    @raise Invalid_argument when the image is neither clean nor
    journaled. *)
val add_update : Buffer.t -> Secure_store.t -> (Secure_store.t -> unit) -> unit

(** Append one update to [image] as a journal record without compacting:
    one load of [image], then {!add_update}.  [image] may be clean or
    already journaled; each result is a byte prefix of the next append's
    result, so a crash tearing the file anywhere in the appended region
    loads (via {!of_bytes}) as the state after some prefix of the
    records, and replaying them is idempotent (records are pure redo).
    This is the reference chain a commit group's images are checked
    against.  When [f] changed nothing, returns [image] unchanged.
    @raise Invalid_argument when [image] is neither clean nor
    journaled. *)
val append_update :
  ?pool_capacity:int -> image:Bytes.t -> (Secure_store.t -> unit) -> Bytes.t

(** Byte extent [(offset, length)] of logical page [lp]'s image + CRC
    inside a database image — for corruption-injection tests.
    @raise Corrupt when the image prefix is malformed or [lp] is out of
    range. *)
val page_extent : Bytes.t -> int -> int * int

val save :
  ?subjects:Dolx_policy.Subject.registry -> ?modes:Dolx_policy.Mode.registry ->
  string -> Secure_store.t -> unit

(** @raise Corrupt on malformed input; [Sys_error] on I/O failure. *)
val load :
  ?pool_capacity:int -> ?on_bad_page:[ `Fail | `Deny_subtree ] -> string ->
  Secure_store.t * (Dolx_policy.Subject.registry * Dolx_policy.Mode.registry) option
