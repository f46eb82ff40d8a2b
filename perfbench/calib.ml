(** The host-speed probe: a fixed kernel timed after every request.

    The benchmark shares a small virtual machine with other tenants, and
    the speed of its vCPUs swings by up to 2x within seconds.  The
    kernel is a pointer chase with integer mixing over a 64 KB
    single-cycle ring.  It runs no code of the program and allocates
    nothing, and an untimed pass brings its ring into cache first, so
    its time follows the host's speed and not what the last request left
    in the caches.  Timings divided by the kernel's time around them no
    longer move with the host. *)

let now = Unix.gettimeofday

(** The kernel's time at the host speed the figures are quoted at:
    about its median on the 2-vCPU shared host the bounds were set on,
    so scaled timings stay close to the measured ones there. *)
let reference = 60e-6

let steps = 16384

(* Sattolo's shuffle: one cycle through every slot. *)
let ring =
  lazy
    (let size = 1 lsl 13 in
     let a = Array.init size Fun.id in
     let prng = Dolx_util.Prng.create 1 in
     for i = size - 1 downto 1 do
       let j = Dolx_util.Prng.int prng i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let sink = ref 0

let chase a steps =
  let p = ref 0 and h = ref 0 in
  for _ = 1 to steps do
    p := a.(!p);
    h := (!h lxor !p) * 0x100000001b3 land max_int
  done;
  sink := !sink + !h

(** Seconds one timed pass of the kernel took. *)
let run () =
  let a = Lazy.force ring in
  chase a (Array.length a);
  let t0 = now () in
  chase a steps;
  now () -. t0

(** The median of [k] kernel times. *)
let sample k = Pct.median (Array.init k (fun _ -> run ()))

(** [local cal w]: for each entry of [cal], the median over the [w]
    entries on either side of it, itself included. *)
let local cal w =
  let n = Array.length cal in
  Array.init n (fun i ->
      let lo = max 0 (i - w) and hi = min (n - 1) (i + w) in
      Pct.median (Array.sub cal lo (hi - lo + 1)))
