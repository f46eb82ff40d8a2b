(** Sorted preorder sets — see the interface. *)

type t =
  | Slice of int array * int * int  (* nodes.(first .. stop - 1), ascending *)
  | Span of int * int  (* every preorder in [lo, stop) *)

let empty = Span (0, 0)

let slice nodes first stop = Slice (nodes, first, stop)

let span lo hi = if lo > hi then empty else Span (lo, hi + 1)

let length = function
  | Slice (_, first, stop) -> stop - first
  | Span (lo, stop) -> stop - lo

let get t i =
  match t with Slice (nodes, first, _) -> nodes.(first + i) | Span (lo, _) -> lo + i

let bisect lo hi p =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p mid then hi := mid else lo := mid + 1
  done;
  !lo

let narrow t ~lo ~hi =
  match t with
  | Span (a, stop) -> span (max a lo) (min (stop - 1) hi)
  | Slice (nodes, first, stop) ->
      let first = bisect first stop (fun j -> nodes.(j) >= lo) in
      Slice (nodes, first, bisect first stop (fun j -> nodes.(j) > hi))

let to_list t = List.init (length t) (get t)

let members = function
  | Slice (nodes, first, stop) -> (nodes, first, stop)
  | Span (lo, stop) -> ([||], lo, stop)

(* The least [j] in [\[lo, hi)] with [get t j >= v], or [hi]: {!bisect}
   with the predicate spelled out, so a seek builds no closure. *)
let rec first_at_least t lo hi v =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if get t mid >= v then first_at_least t lo mid v
    else first_at_least t (mid + 1) hi v

(* [get t lo < v]: gallop out from [lo] by [step], then bisect the last
   step. *)
let rec widen t n v lo step =
  let probe = lo + step in
  if probe >= n || get t probe >= v then first_at_least t (lo + 1) (min probe n) v
  else widen t n v probe (2 * step)

(* The least [j >= i] with [get t j >= v]: a short skip costs a few
   probes. *)
let seek t i v =
  let n = length t in
  if i >= n || get t i >= v then i else widen t n v i 1
