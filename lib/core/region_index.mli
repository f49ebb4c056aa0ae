(** The region index (paper §4.3): [start|end|id] rows kept clustered
    on [start], the access path of the StandOff merge joins.

    Non-contiguous areas repeat their node id across several rows, one
    per region; [region_rank] says which of the area's regions a row
    carries so that the multi-region containment post-processing can
    count coverage. *)

type positions = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A flat column of 64-bit positions: unboxed, unlike [int64 array],
    whose elements are pointers to boxed values. *)

(** [positions n] is an uninitialised column of [n] positions. *)
val positions : int -> positions

(** [positions_to_list a] lists the column, for tests and dumps. *)
val positions_to_list : positions -> int64 list

type t = private {
  starts : positions;
  ends : positions;
  ids : int array;          (** annotation node ids (pre ranks) *)
  region_ranks : int array; (** index of the region within its area *)
}
(** Invariant: rows sorted on [(start asc, end desc, id asc, rank asc)]
    — a total order, so the sorted form of a given row multiset is
    unique regardless of the order the rows arrived in.

    The arrays are shared with every reader of the index and change in
    place only through {!move_row}, which callers run under the
    document's write exclusion (no query may be sweeping them). *)

(** [of_columns ~starts ~ends ~ids ~ranks] indexes the rows given as
    parallel columns, in any order, taking ownership of the columns.
    Rows that already arrive in sweep order (annotations in document
    order that nest like the tree) skip the sort after one checking
    pass; otherwise the row order is radix-sorted, one stable sort per
    key, and the columns gathered through it. *)
val of_columns :
  starts:positions -> ends:positions -> ids:int array -> ranks:int array -> t

(** [build annots] indexes [(id, area)] pairs ({!of_columns}). *)
val build : (int * Standoff_interval.Area.t) list -> t

(** [row_count idx] is the number of region rows. *)
val row_count : t -> int

(** [restrict idx ~ids] performs the index intersection of §4.3:
    keeps only rows whose id occurs in the sorted array [ids],
    preserving the [start] clustering.  Membership tests use a bitmap
    over the candidate ids (O(1) per row, one sweep to count the
    survivors and one to copy them). *)
val restrict : t -> ids:int array -> t

(** [move_row idx ~id ~rank ~from ~to_] replaces the row
    [(from, id, rank)] by [(to_, id, rank)] in place, keeping the sweep
    order: one binary search finds each slot and one blit per column
    shifts the rows in between.  The result equals a fresh
    {!build} of the changed row set.  Run under write exclusion only.
    @raise Invalid_argument if [idx] holds no row [(from, id, rank)]. *)
val move_row :
  t ->
  id:int ->
  rank:int ->
  from:Standoff_interval.Region.t ->
  to_:Standoff_interval.Region.t ->
  unit

(** [pp fmt idx] dumps the rows, for debugging. *)
val pp : Format.formatter -> t -> unit
