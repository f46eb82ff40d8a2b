(** Frame codec: length-prefixed binary frames (see frame.mli and
    docs/ARCHITECTURE.md §14 for the grammar).

    Layout: [u32_be body_len | tag:u8 | payload].  Payload atoms are
    LEB128 varints ({!Dolx_util.Varint}) and varint-length-prefixed
    strings.  The decoder validates the length prefix against
    [max_frame] before allocating anything payload-sized, decodes every
    varint with an explicit limit, and requires each body to parse to
    exactly its declared length. *)

module Varint = Dolx_util.Varint
module Engine = Dolx_nok.Engine

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

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

let equal (a : t) (b : t) = a = b

let default_max_frame = 1 lsl 20

(* Armed only via DOLX_FUZZ_PLANT_BUG=frame; tests may toggle the ref. *)
let planted_bug = ref (Sys.getenv_opt "DOLX_FUZZ_PLANT_BUG" = Some "frame")

(* --- tags --- *)

let tag_hello = 0x01
and tag_submit = 0x02
and tag_next = 0x03
and tag_close = 0x04
and tag_stats = 0x05
and tag_bye = 0x06

let tag_welcome = 0x81
and tag_accepted = 0x82
and tag_chunk = 0x83
and tag_end = 0x84
and tag_error = 0x85
and tag_overloaded = 0x86
and tag_stats_reply = 0x87
and tag_last = 0x88

(* --- encoding --- *)

(* {!Varint.write}'s encoding, straight into the buffer *)
let rec add_varint buf x =
  if x < 0 then invalid_arg "Frame: negative varint";
  if x < 128 then Buffer.add_char buf (Char.unsafe_chr x)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (128 lor (x land 127)));
    add_varint buf (x lsr 7)
  end

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_semantics buf = function
  | Engine.Insecure -> add_varint buf 0
  | Engine.Secure s ->
      add_varint buf 1;
      add_varint buf s
  | Engine.Secure_path s ->
      add_varint buf 2;
      add_varint buf s

let add_answers buf tag id answers =
  Buffer.add_char buf (Char.chr tag);
  add_varint buf id;
  add_varint buf (List.length answers);
  List.iter (add_varint buf) answers

let encode_body buf = function
  | Request (Hello { client }) ->
      Buffer.add_char buf (Char.chr tag_hello);
      add_string buf client
  | Request (Submit { id; tenant; xpath; semantics }) ->
      Buffer.add_char buf (Char.chr tag_submit);
      add_varint buf id;
      add_string buf tenant;
      add_string buf xpath;
      add_semantics buf semantics
  | Request (Next { id }) ->
      Buffer.add_char buf (Char.chr tag_next);
      add_varint buf id
  | Request (Close { id }) ->
      Buffer.add_char buf (Char.chr tag_close);
      add_varint buf id
  | Request Stats -> Buffer.add_char buf (Char.chr tag_stats)
  | Request Bye -> Buffer.add_char buf (Char.chr tag_bye)
  | Response (Welcome { server }) ->
      Buffer.add_char buf (Char.chr tag_welcome);
      add_string buf server
  | Response (Accepted { id }) ->
      Buffer.add_char buf (Char.chr tag_accepted);
      add_varint buf id
  | Response (Chunk { id; answers }) -> add_answers buf tag_chunk id answers
  | Response (Last { id; answers }) -> add_answers buf tag_last id answers
  | Response (End { id }) ->
      Buffer.add_char buf (Char.chr tag_end);
      add_varint buf id
  | Response (Error { id; message }) ->
      Buffer.add_char buf (Char.chr tag_error);
      add_varint buf id;
      add_string buf message
  | Response (Overloaded { id }) ->
      Buffer.add_char buf (Char.chr tag_overloaded);
      add_varint buf id
  | Response (Stats_reply kvs) ->
      Buffer.add_char buf (Char.chr tag_stats_reply);
      add_varint buf (List.length kvs);
      List.iter
        (fun (k, v) ->
          add_string buf k;
          add_varint buf v)
        kvs

let add ?(max_frame = default_max_frame) out frame =
  let body = Buffer.create 64 in
  encode_body body frame;
  let len = Buffer.length body in
  if len < 1 || len > max_frame then
    invalid_arg
      (Printf.sprintf "Frame.add: body of %d bytes exceeds max_frame %d"
         len max_frame);
  Buffer.add_int32_be out (Int32.of_int len);
  Buffer.add_buffer out body

let to_bytes ?max_frame frame =
  let out = Buffer.create 68 in
  add ?max_frame out frame;
  Buffer.to_bytes out

(* --- decoding --- *)

type decoder = {
  mutable data : Bytes.t;  (* pending input: [start, start + len) *)
  mutable start : int;
  mutable len : int;
  mutable poisoned : bool;
  max_frame : int;
}

let decoder ?(max_frame = default_max_frame) () =
  { data = Bytes.create 256; start = 0; len = 0; poisoned = false; max_frame }

let buffered d = d.len

let feed d src off n =
  if off < 0 || n < 0 || off + n > Bytes.length src then
    invalid_arg "Frame.feed: bad slice";
  if d.start + d.len + n > Bytes.length d.data then begin
    (* compact, then grow if still needed *)
    Bytes.blit d.data d.start d.data 0 d.len;
    d.start <- 0;
    if d.len + n > Bytes.length d.data then begin
      let cap = max (d.len + n) (2 * Bytes.length d.data) in
      let bigger = Bytes.create cap in
      Bytes.blit d.data 0 bigger 0 d.len;
      d.data <- bigger
    end
  end;
  Bytes.blit src off d.data (d.start + d.len) n;
  d.len <- d.len + n

(* Body readers: [pos] advances inside [lo, limit); everything is
   bounds-checked against [limit] so a decoder can never touch bytes
   beyond the frame it was asked to parse. *)

let read_varint d pos ~limit =
  match Varint.read_opt d.data ~pos:!pos ~limit with
  | None -> corrupt "truncated or overlong varint in frame body"
  | Some (v, pos') ->
      pos := pos';
      v

let read_string d pos ~limit =
  let n = read_varint d pos ~limit in
  (* subtraction form: [!pos + n] could overflow for n near max_int *)
  if n < 0 || n > limit - !pos then corrupt "string runs past the frame body";
  let s = Bytes.sub_string d.data !pos n in
  pos := !pos + n;
  s

let read_semantics d pos ~limit =
  match read_varint d pos ~limit with
  | 0 -> Engine.Insecure
  | 1 -> Engine.Secure (read_varint d pos ~limit)
  | 2 -> Engine.Secure_path (read_varint d pos ~limit)
  | k -> corrupt "unknown semantics tag %d" k

let decode_body d lo ~limit =
  let pos = ref lo in
  let tag = Char.code (Bytes.get d.data !pos) in
  incr pos;
  let varint () = read_varint d pos ~limit in
  let string () = read_string d pos ~limit in
  let frame =
    if tag = tag_hello then Request (Hello { client = string () })
    else if tag = tag_submit then
      let id = varint () in
      let tenant = string () in
      let xpath = string () in
      let semantics = read_semantics d pos ~limit in
      Request (Submit { id; tenant; xpath; semantics })
    else if tag = tag_next then Request (Next { id = varint () })
    else if tag = tag_close then Request (Close { id = varint () })
    else if tag = tag_stats then Request Stats
    else if tag = tag_bye then Request Bye
    else if tag = tag_welcome then Response (Welcome { server = string () })
    else if tag = tag_accepted then Response (Accepted { id = varint () })
    else if tag = tag_chunk || tag = tag_last then begin
      let id = varint () in
      let n = varint () in
      (* each answer is >= 1 byte, so a count beyond the remaining body
         cannot be legal: reject before allocating the list *)
      if n > limit - !pos then corrupt "chunk count %d exceeds frame body" n;
      (* explicit loop: List.init's evaluation order is unspecified *)
      let answers = ref [] in
      for _ = 1 to n do
        answers := varint () :: !answers
      done;
      let answers = List.rev !answers in
      let answers =
        if !planted_bug && n > 1 then List.filteri (fun i _ -> i < n - 1) answers
        else answers
      in
      Response
        (if tag = tag_chunk then Chunk { id; answers } else Last { id; answers })
    end
    else if tag = tag_end then Response (End { id = varint () })
    else if tag = tag_error then
      let id = varint () in
      Response (Error { id; message = string () })
    else if tag = tag_overloaded then Response (Overloaded { id = varint () })
    else if tag = tag_stats_reply then begin
      let n = varint () in
      if n > (limit - !pos) / 2 then
        corrupt "stats count %d exceeds frame body" n;
      let kvs = ref [] in
      for _ = 1 to n do
        let k = string () in
        let v = varint () in
        kvs := (k, v) :: !kvs
      done;
      Response (Stats_reply (List.rev !kvs))
    end
    else corrupt "unknown frame tag 0x%02x" tag
  in
  if !pos <> limit then
    corrupt "%d trailing bytes after frame payload" (limit - !pos);
  frame

let ready d =
  d.poisoned
  || d.len >= 4
     &&
     let body_len = Int32.to_int (Bytes.get_int32_be d.data d.start) in
     body_len < 1 || body_len > d.max_frame || d.len >= 4 + body_len

let next d =
  if d.poisoned then corrupt "decoder poisoned by earlier corrupt input";
  if d.len < 4 then None
  else begin
    let body_len = Int32.to_int (Bytes.get_int32_be d.data d.start) in
    (* check the declared length before any allocation sized by it: a
       negative (sign-bit set) or oversized prefix is rejected here *)
    if body_len < 1 || body_len > d.max_frame then begin
      d.poisoned <- true;
      corrupt "frame length %d outside [1, %d]" body_len d.max_frame
    end;
    if d.len < 4 + body_len then None
    else begin
      let lo = d.start + 4 in
      match decode_body d lo ~limit:(lo + body_len) with
      | frame ->
          d.start <- d.start + 4 + body_len;
          d.len <- d.len - (4 + body_len);
          if d.len = 0 then d.start <- 0;
          Some frame
      | exception (Corrupt _ as e) ->
          d.poisoned <- true;
          raise e
    end
  end

(* --- printing --- *)

let semantics_name = function
  | Engine.Insecure -> "insecure"
  | Engine.Secure s -> Printf.sprintf "secure:%d" s
  | Engine.Secure_path s -> Printf.sprintf "secure-path:%d" s

let pp ppf = function
  | Request (Hello { client }) -> Format.fprintf ppf "hello(%s)" client
  | Request (Submit { id; tenant; xpath; semantics }) ->
      Format.fprintf ppf "submit(#%d %s %S %s)" id tenant xpath
        (semantics_name semantics)
  | Request (Next { id }) -> Format.fprintf ppf "next(#%d)" id
  | Request (Close { id }) -> Format.fprintf ppf "close(#%d)" id
  | Request Stats -> Format.fprintf ppf "stats"
  | Request Bye -> Format.fprintf ppf "bye"
  | Response (Welcome { server }) -> Format.fprintf ppf "welcome(%s)" server
  | Response (Accepted { id }) -> Format.fprintf ppf "accepted(#%d)" id
  | Response (Chunk { id; answers }) ->
      Format.fprintf ppf "chunk(#%d %d answers)" id (List.length answers)
  | Response (Last { id; answers }) ->
      Format.fprintf ppf "last(#%d %d answers)" id (List.length answers)
  | Response (End { id }) -> Format.fprintf ppf "end(#%d)" id
  | Response (Error { id; message }) ->
      Format.fprintf ppf "error(#%d %S)" id message
  | Response (Overloaded { id }) -> Format.fprintf ppf "overloaded(#%d)" id
  | Response (Stats_reply kvs) ->
      Format.fprintf ppf "stats-reply(%d keys)" (List.length kvs)
