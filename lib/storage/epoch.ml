(** The epoch clock behind snapshot isolation.

    One clock per simulated {!Disk}.  Writers advance the clock once per
    published update; readers pin the current epoch for the duration of
    a query and see the page images that were live at that instant (the
    disk retains superseded images in per-page version chains, see
    {!Disk}).  The {!horizon} — the oldest pinned epoch, or the current
    epoch when nothing is pinned — is the retirement rule: a version
    visible only below the horizon can never be read again and is
    dropped.

    All operations are mutex-serialized; pin/unpin sit on the query
    setup path (not the per-node hot path), so contention is bounded by
    query arrival rate, not evaluation work. *)

module Metrics = Dolx_obs.Metrics

let c_advances = Metrics.counter "epoch.advances"

let c_pins = Metrics.counter "epoch.pins"

let g_current = Metrics.gauge "epoch.current"

let g_active_pins = Metrics.gauge "epoch.active_pins"

type t = {
  m : Mutex.t;
  mutable current : int;
  pins : (int, int) Hashtbl.t; (* epoch -> number of pins at that epoch *)
  mutable n_pins : int;
}

let create () =
  { m = Mutex.create (); current = 0; pins = Hashtbl.create 8; n_pins = 0 }

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

let current t = locked t (fun () -> t.current)

(** Advance the clock (the publish point of an update) and return the
    new epoch. *)
let advance t =
  locked t @@ fun () ->
  t.current <- t.current + 1;
  Metrics.incr c_advances;
  Metrics.gauge_set g_current (float_of_int t.current);
  t.current

(* One more pin on epoch [e]; called under the lock. *)
let add_pin t e =
  Hashtbl.replace t.pins e
    (1 + Option.value (Hashtbl.find_opt t.pins e) ~default:0);
  t.n_pins <- t.n_pins + 1;
  Metrics.incr c_pins;
  Metrics.gauge_set g_active_pins (float_of_int t.n_pins)

(** Pin the current epoch and return it.  Until the matching {!unpin},
    page versions visible at the returned epoch are retained. *)
let pin t =
  locked t @@ fun () ->
  add_pin t t.current;
  t.current

(** Add one more pin to epoch [e], which must already be pinned: a
    reader derived from a pinned reader shares its snapshot.
    @raise Invalid_argument when [e] is not currently pinned. *)
let repin t e =
  locked t @@ fun () ->
  if not (Hashtbl.mem t.pins e) then
    invalid_arg (Printf.sprintf "Epoch.repin: epoch %d not pinned" e);
  add_pin t e

(** @raise Invalid_argument when [e] is not currently pinned. *)
let unpin t e =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.pins e with
  | None -> invalid_arg (Printf.sprintf "Epoch.unpin: epoch %d not pinned" e)
  | Some 1 -> Hashtbl.remove t.pins e
  | Some k -> Hashtbl.replace t.pins e (k - 1));
  t.n_pins <- t.n_pins - 1;
  Metrics.gauge_set g_active_pins (float_of_int t.n_pins)

let pinned t = locked t (fun () -> t.n_pins > 0)

let pin_count t = locked t (fun () -> t.n_pins)

(** The retirement horizon: the oldest pinned epoch, or the current
    epoch when nothing is pinned.  A page version whose visibility ends
    at or below the horizon has no possible reader left. *)
let horizon t =
  locked t @@ fun () ->
  if t.n_pins = 0 then t.current
  else Hashtbl.fold (fun e _ acc -> min e acc) t.pins max_int
