(** Binary-search helpers over sorted int arrays.

    DOL lookups ("locate the transition node that precedes node d", paper
    §3.3) and the in-memory page table both reduce to predecessor search. *)

(** [predecessor keys x] is the greatest index [i] with [keys.(i) <= x],
    or [None] if all keys exceed [x].  [keys] must be sorted ascending. *)
let predecessor keys x =
  let n = Array.length keys in
  if n = 0 || keys.(0) > x then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: keys.(lo) <= x; keys.(hi+1) > x if hi+1 < n *)
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if keys.(mid) <= x then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

(** [successor keys x] is the least index [i] with [keys.(i) >= x]. *)
let successor keys x =
  let n = Array.length keys in
  if n = 0 || keys.(n - 1) < x then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if keys.(mid) >= x then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

(** Exact search: index of [x] in sorted [keys], if present. *)
let find keys x =
  match predecessor keys x with
  | Some i when keys.(i) = x -> Some i
  | _ -> None
