(** Framed connection over an fd; see conn.mli. *)

module Prng = Dolx_util.Prng
module Metrics = Dolx_obs.Metrics

exception Closed of { mid_frame : bool }

let c_frames_out = Metrics.counter "wire.frames_out"

let c_frames_in = Metrics.counter "wire.frames_in"

let c_faults = Metrics.counter "wire.injected_faults"

type fault_plan = {
  fault_prng : Prng.t;
  short_write_p : float;
  torn_frame_p : float;
  reset_p : float;
}

let fault_plan ?(short_write_p = 0.0) ?(torn_frame_p = 0.0) ?(reset_p = 0.0)
    prng =
  { fault_prng = prng; short_write_p; torn_frame_p; reset_p }

type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  max_frame : int;
  rbuf : Bytes.t;
  out : Buffer.t;  (* frames queued since the last flush *)
  mutable queued : int;  (* how many *)
  m : Mutex.t;  (* serializes queue and flush; recv is owned by one thread *)
  mutable plan : fault_plan option;
  mutable closed : bool;
  mutable short_writes : int;
  mutable torn_frames : int;
  mutable resets : int;
}

let of_fd ?(max_frame = Frame.default_max_frame) fd =
  {
    fd;
    dec = Frame.decoder ~max_frame ();
    max_frame;
    rbuf = Bytes.create 4096;
    out = Buffer.create 256;
    queued = 0;
    m = Mutex.create ();
    plan = None;
    closed = false;
    short_writes = 0;
    torn_frames = 0;
    resets = 0;
  }

let set_fault_plan t plan = t.plan <- plan

let short_writes t = t.short_writes

let torn_frames t = t.torn_frames

let resets t = t.resets

let shutdown t =
  if not t.closed then
    try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let abort t = close t

(* A write error means the peer vanished (the reader will also see it);
   surface every flavor as Closed. *)
let rec write_or_closed t buf off len =
  match Unix.write t.fd buf off len with
  | n -> n
  | exception Unix.Unix_error (EINTR, _, _) -> write_or_closed t buf off len
  | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _)
    ->
      raise (Closed { mid_frame = false })

let rec write_all t buf off len =
  if len > 0 then begin
    let n = write_or_closed t buf off len in
    write_all t buf (off + n) (len - n)
  end

(* Dribble the frame a few bytes at a time — exercises the peer's
   reassembly of short reads without changing the byte stream. *)
let write_dribbled t prng buf len =
  let off = ref 0 in
  while !off < len do
    let n = min (Prng.int_in prng 1 7) (len - !off) in
    write_all t buf !off n;
    off := !off + n
  done

let queue t frame =
  Mutex.protect t.m (fun () ->
      Frame.add ~max_frame:t.max_frame t.out frame;
      t.queued <- t.queued + 1)

let flush t =
  Mutex.protect t.m (fun () ->
      let len = Buffer.length t.out and frames = t.queued in
      let buf = Buffer.to_bytes t.out in
      Buffer.clear t.out;
      t.queued <- 0;
      if t.closed then raise (Closed { mid_frame = false });
      if len > 0 then begin
        match t.plan with
        | Some p when Prng.bool p.fault_prng ~p:p.reset_p ->
            (* abrupt reset: the peer sees the cut with no partial frame *)
            t.resets <- t.resets + 1;
            Metrics.incr c_faults;
            close t;
            raise (Closed { mid_frame = false })
        | Some p when len > 1 && Prng.bool p.fault_prng ~p:p.torn_frame_p ->
            (* torn write: a strict prefix reaches the peer, then the cut *)
            let cut = Prng.int_in p.fault_prng 1 (len - 1) in
            t.torn_frames <- t.torn_frames + 1;
            Metrics.incr c_faults;
            write_all t buf 0 cut;
            close t;
            raise (Closed { mid_frame = false })
        | Some p when Prng.bool p.fault_prng ~p:p.short_write_p ->
            t.short_writes <- t.short_writes + 1;
            Metrics.incr c_faults;
            write_dribbled t p.fault_prng buf len;
            Metrics.add c_frames_out frames
        | _ ->
            write_all t buf 0 len;
            Metrics.add c_frames_out frames
      end)

let send t frame =
  queue t frame;
  flush t

let ready t = Frame.ready t.dec

let queued_bytes t = Mutex.protect t.m (fun () -> Buffer.length t.out)

let rec recv t =
  match Frame.next t.dec with
  | Some frame ->
      Metrics.incr c_frames_in;
      frame
  | None ->
      let rec read_retrying () =
        match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
        | n -> n
        | exception Unix.Unix_error (EINTR, _, _) -> read_retrying ()
        | exception
            Unix.Unix_error ((ECONNRESET | EBADF | ENOTCONN | EPIPE), _, _)
          ->
            0
      in
      let n = if t.closed then 0 else read_retrying () in
      if n = 0 then raise (Closed { mid_frame = Frame.buffered t.dec > 0 })
      else begin
        Frame.feed t.dec t.rbuf 0 n;
        recv t
      end
