(** Binary searches over sorted arrays.

    The region index and the staircase joins rely on these to position
    scans; all functions assume the array is sorted consistently with
    the supplied comparison. *)

(** [lower_bound ~cmp a x] is the smallest index [i] such that
    [cmp a.(i) x >= 0], i.e. the first position where [x] could be
    inserted keeping [a] sorted.  Returns [Array.length a] if every
    element is smaller than [x]. *)
val lower_bound : cmp:('a -> 'b -> int) -> 'a array -> 'b -> int

(** [upper_bound ~cmp a x] is the smallest index [i] such that
    [cmp a.(i) x > 0]. *)
val upper_bound : cmp:('a -> 'b -> int) -> 'a array -> 'b -> int


(** [lower_bound_int a x] is [lower_bound] specialised to sorted [int]
    arrays with the natural order (avoids closure allocation on the hot
    path of the joins). *)
val lower_bound_int : int array -> int -> int

(** [mem_sorted_int a x] is membership in a sorted [int] array. *)
val mem_sorted_int : int array -> int -> bool
