(** The wire protocol's frame grammar and codec (see
    docs/ARCHITECTURE.md §14).

    Every frame is a 4-byte big-endian length prefix followed by a body
    of exactly that many bytes: a one-byte tag and a tag-specific
    payload of varints and length-prefixed strings.  The decoder is
    incremental — bytes arrive in arbitrary splits (short reads) and a
    frame is surfaced only once it is complete — and hostile-input
    safe: the length prefix is bounds-checked {e before} any
    payload-sized allocation, every varint is decoded with an explicit
    limit ({!Dolx_util.Varint.read_opt}), and a body that does not parse
    to exactly its declared length raises {!Corrupt}. *)

module Engine = Dolx_nok.Engine

(** Raised on malformed input: a length prefix outside
    [1 .. max_frame], an unknown tag, a truncated or overlong payload.
    Once raised, the decoder is poisoned — the connection it fed from
    cannot be resynchronized and must be dropped. *)
exception Corrupt of string

(** Requests travel client → server. [Submit.id] is a client-chosen
    stream id, fresh per submission on that connection; [Next], [Close]
    refer to it.  [Bye] is a client's last frame before it closes the
    connection: the server ends the session without counting a
    disconnect, and sends no reply. *)
type request =
  | Hello of { client : string }
  | Submit of {
      id : int;
      tenant : string;
      xpath : string;
      semantics : Engine.semantics;
    }
  | Next of { id : int }
  | Close of { id : int }
  | Stats
  | Bye

(** Responses travel server → client.  Every request but [Bye] gets
    exactly one response, in request order: [Hello]→[Welcome]; [Submit]→[Accepted]/
    [Overloaded]/[Error]; [Next]→[Chunk]/[Last]/[End]/[Error];
    [Close]→[End] (idempotent ack); [Stats]→[Stats_reply].  [Last] is a
    chunk that ends its stream: no [Next] for that id follows it. *)
type response =
  | Welcome of { server : string }
  | Accepted of { id : int }
  | Chunk of { id : int; answers : int list }
  | Last of { id : int; answers : int list }
  | End of { id : int }
  | Error of { id : int; message : string }
  | Overloaded of { id : int }
  | Stats_reply of (string * int) list

type t = Request of request | Response of response

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Hard ceiling on the body length the decoder will buffer (1 MiB);
    encoders refuse to produce larger frames. *)
val default_max_frame : int

(** Append a frame (length prefix included) to a buffer — several
    frames appended back to back go out in one write.
    @raise Invalid_argument when the body exceeds [max_frame]. *)
val add : ?max_frame:int -> Buffer.t -> t -> unit

(** Serialize one frame: {!add} to a fresh buffer. *)
val to_bytes : ?max_frame:int -> t -> Bytes.t

(** {1 Incremental decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder

(** Append [len] bytes of [b] starting at [off] to the pending input. *)
val feed : decoder -> Bytes.t -> int -> int -> unit

(** Pop the next complete frame; [None] means the pending bytes end
    mid-frame (feed more).  The decoder never inspects bytes past the
    frame it returns.
    @raise Corrupt on malformed input (decoder poisoned thereafter). *)
val next : decoder -> t option

(** Bytes fed but not yet consumed as frames. *)
val buffered : decoder -> int

(** Would {!next} answer without more input — a complete frame is
    buffered, or the pending bytes are already known to be corrupt? *)
val ready : decoder -> bool

(** Planted-bug switch for the codec fuzz canary: armed at startup by
    [DOLX_FUZZ_PLANT_BUG=frame], it makes the decoder silently drop the
    last answer of any multi-answer [Chunk] or [Last] — the kind of
    off-by-one a round-trip fuzzer must catch.  Tests may toggle the
    ref. *)
val planted_bug : bool ref
