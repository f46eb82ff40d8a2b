(** Structural joins on the ancestor–descendant relationship:
    Stack-Tree-Desc (Al-Khalifa et al., ICDE 2002) and the secure ε-STD
    variants for the Gabillon–Bruno path semantics of §4.2. *)

module Store = Dolx_core.Secure_store

(** Stack-Tree-Desc over document-order-sorted candidate lists: all pairs
    [(a, d)] with [a] from [alist] a proper ancestor of [d] from [dlist],
    grouped by descendant, innermost ancestor first. *)
val stack_tree_desc : Store.t -> alist:int list -> dlist:int list -> (int * int) list

(** ε-STD, straw-man: every pair re-walks its connecting path against
    the store — the cost the paper warns about ("this checking may
    involve lots of page reads"). *)
val secure_stack_tree_desc_unmemoized :
  Store.t -> subject:int -> alist:int list -> dlist:int list -> (int * int) list

(** ε-STD with a per-join accessibility memo: each node fetched and
    checked at most once. *)
val secure_stack_tree_desc_naive :
  Store.t -> subject:int -> alist:int list -> dlist:int list -> (int * int) list

(** ε-STD, stack-cached (in the spirit of the paper's [18]): path
    accessibility is maintained incrementally on the STD stack with lazy
    segment verdicts, deciding each pair by one running conjunction —
    "only load each page once if necessary". *)
val secure_stack_tree_desc :
  Store.t -> subject:int -> alist:int list -> dlist:int list -> (int * int) list

(** Distinct descendants of a pair list, ascending. *)
val descendants_of_pairs : (int * int) list -> int list
