(** The region index (paper §4.3): [start|end|id] rows kept clustered
    on [start], the access path of the StandOff merge joins.

    Non-contiguous areas repeat their node id across several rows, one
    per region; [region_rank] says which of the area's regions a row
    carries so that the multi-region containment post-processing can
    count coverage. *)

type t = private {
  starts : int64 array;
  ends : int64 array;
  ids : int array;          (** annotation node ids (pre ranks) *)
  region_ranks : int array; (** index of the region within its area *)
}
(** Invariant: rows sorted on [(start asc, end desc, id asc, rank asc)]
    — a total order, so the sorted form of a given row multiset is
    unique regardless of how (or how parallel) it was sorted.

    The arrays are shared with every reader of the index and change in
    place only through {!move_row}, which callers run under the
    document's write exclusion (no query may be sweeping them). *)

(** [build ?pool annots] indexes [(id, area)] pairs.  Rows that already
    arrive in sweep order (annotations in document order that nest like
    the tree) skip the sort after one checking pass.  Otherwise, with a
    [pool] of more than one job and enough rows, the sort runs as
    parallel chunk sorts followed by a pairwise merge.  Either way the
    result is identical to the sequential build. *)
val build : ?pool:Standoff_util.Pool.t -> (int * Standoff_interval.Area.t) list -> t

(** [row_count idx] is the number of region rows. *)
val row_count : t -> int

(** [annotation_ids idx] is the sorted, duplicate-free array of node
    ids appearing in the index. *)
val annotation_ids : t -> int array

(** [restrict ?pool idx ~ids] performs the index intersection of §4.3:
    keeps only rows whose id occurs in the sorted array [ids],
    preserving the [start] clustering.  Membership tests use a bitmap
    over the candidate ids (one sweep, O(1) per row); with a [pool] the
    sweep is partitioned and chunk outputs land in contiguous slices,
    so the result is identical to the sequential sweep. *)
val restrict : ?pool:Standoff_util.Pool.t -> t -> ids:int array -> t

(** [region idx row] is the region of row [row]. *)
val region : t -> int -> Standoff_interval.Region.t

(** [move_row idx ~id ~rank ~from ~to_] replaces the row
    [(from, id, rank)] by [(to_, id, rank)] in place, keeping the sweep
    order: one binary search finds each slot and one [Array.blit] per
    column shifts the rows in between.  The result equals a fresh
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
