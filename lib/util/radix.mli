(** Stable LSD radix sorts on integer keys, 8 bits a pass.

    A pass costs O(n) where a comparison sort pays O(n log n) calls
    through a closure; digits on which every key agrees are found up
    front and skipped, so small positions and node ids take few passes
    whatever their type's width.  The joins sort matches, context rows
    and index rows with these. *)

(** [sort_ints a] sorts [a] ascending, in place. *)
val sort_ints : int array -> unit

(** [sort_by_ints keys perm] stably reorders the row numbers [perm] on
    [keys.(row)], ascending. *)
val sort_by_ints : int array -> int array -> unit

(** [sort_by_int64s col ~descending perm] stably reorders the row
    numbers [perm] on [col.{row}]. *)
val sort_by_int64s :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  descending:bool ->
  int array ->
  unit
