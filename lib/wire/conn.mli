(** A framed connection over a file descriptor: blocking send/recv of
    {!Frame.t} values with partial-write handling, plus a modeled fault
    layer in the {!Dolx_storage.Disk} idiom — a PRNG-driven
    {!fault_plan} injects short writes (frames dribbled a few bytes at
    a time), torn writes (the connection cut after a random prefix of
    the bytes) and abrupt resets, so the peer's reassembly and
    disconnect-handling paths can be exercised deterministically.

    Sending is two steps: {!queue} appends frames to an output buffer
    and {!flush} writes everything queued in one write, so a batch of
    frames costs the peer one wake-up. *)

(** The peer is gone: EOF, [EPIPE], [ECONNRESET], or an injected tear /
    reset.  [mid_frame] is true when the cut left a partial frame in
    the receive buffer. *)
exception Closed of { mid_frame : bool }

(** A reproducible failure schedule; all probabilities are per
    {!flush} and drawn from [fault_prng].  Defaults (all 0) inject
    nothing. *)
type fault_plan = {
  fault_prng : Dolx_util.Prng.t;
  short_write_p : float;  (** per flush: dribble the bytes 1–7 at a time *)
  torn_frame_p : float;  (** per flush: write a strict prefix, then cut *)
  reset_p : float;  (** per flush: cut the connection before writing *)
}

val fault_plan :
  ?short_write_p:float ->
  ?torn_frame_p:float ->
  ?reset_p:float ->
  Dolx_util.Prng.t ->
  fault_plan

type t

val of_fd : ?max_frame:int -> Unix.file_descr -> t

val set_fault_plan : t -> fault_plan option -> unit

(** Counters of injected faults on this connection. *)
val short_writes : t -> int

val torn_frames : t -> int

val resets : t -> int

(** Append one frame to the output buffer; nothing is written yet.
    @raise Invalid_argument when the frame exceeds [max_frame]. *)
val queue : t -> Frame.t -> unit

(** Write every queued frame in one write, honoring the fault plan.
    The buffer is emptied whether or not the write succeeds.
    @raise Closed when the peer is gone (or a tear/reset fired). *)
val flush : t -> unit

(** Bytes queued and not yet flushed. *)
val queued_bytes : t -> int

(** {!queue} one frame, then {!flush}. *)
val send : t -> Frame.t -> unit

(** Is a complete frame already received, so {!recv} would return (or
    raise {!Frame.Corrupt}) without reading the descriptor? *)
val ready : t -> bool

(** Block for the next complete frame.
    @raise Closed on EOF ([mid_frame] reports a mid-frame cut).
    @raise Frame.Corrupt on undecodable input. *)
val recv : t -> Frame.t

(** Wake the peer-facing half: [shutdown(2)] both directions so a
    thread blocked in {!recv} on this connection sees EOF.  Unlike
    {!close} this is safe to call from another thread — the descriptor
    stays valid until its owner closes it. *)
val shutdown : t -> unit

(** Close the descriptor (idempotent).  Only the thread that owns the
    connection should call this; cross-thread teardown uses
    {!shutdown}. *)
val close : t -> unit

(** Close abruptly without any protocol goodbye — what a killed client
    looks like to the peer. *)
val abort : t -> unit
