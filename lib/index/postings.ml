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

(* The least [j >= i] with [get t j >= v]: gallop out from [i], then
   bisect the last step, so a short skip costs a few probes. *)
let seek t i v =
  let n = length t in
  let rec widen lo step =
    let probe = lo + step in
    if probe >= n || get t probe >= v then
      bisect (lo + 1) (min probe n) (fun j -> get t j >= v)
    else widen probe (2 * step)
  in
  if i >= n || get t i >= v then i else widen i 1

let admit_all _ = (min_int, max_int)

let scan ?(gate = admit_all) ?(only = fun _ -> true) ?(skipped = fun _ _ -> ()) t f =
  let n = length t in
  let rec go i lo hi =
    i < n
    &&
    let v = get t i in
    if not (only v) then go (i + 1) lo hi
    else if v >= hi then
      let lo, hi = gate v in
      go i lo hi
    else if v < lo then begin
      let j = seek t i lo in
      skipped i j;
      go j lo hi
    end
    else f v || go (i + 1) lo hi
  in
  go 0 min_int min_int
