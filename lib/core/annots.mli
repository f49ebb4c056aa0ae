(** Extraction of area-annotations from a shredded document, under a
    given {!Config} (paper §2).

    In the attribute representation, an element is an area-annotation
    when it carries both the start and the end attribute; in the
    element representation, when it has at least one region child
    element.  Descendants of an area-annotation may freely be
    area-annotations themselves, with no containment restriction. *)

exception Invalid_region of { pre : int; msg : string }
(** Raised when an element has region markup that cannot be
    interpreted — one of the two names missing, a position that is not
    an integer, or [start > end]. *)

type by_name
(** The per-name candidate indexes: one restricted region index per
    element name, built on first use and kept for the life of the
    table.  Each annotation has exactly one name, so together they
    never hold more rows than the full index.  Safe to share across
    domains. *)

(** The arrays of [t] (and of its [index]) are shared by every reader;
    they change in place only through {!move}, under the document's
    write exclusion. *)
type t = private {
  doc : Standoff_store.Doc.t;
  ids : int array;  (** area-annotation pres, sorted *)
  areas : Standoff_interval.Area.t array;  (** parallel to [ids] *)
  slots : int array;
      (** dense [pre -> slot] map over every node of [doc]: the slot of
          the annotation in [ids]/[areas], or [-1] *)
  first_region : int array;
      (** the regions of [areas], flat: slot [s] owns rows
          [first_region.(s) .. first_region.(s + 1) - 1] of
          [region_starts]/[region_ends] *)
  region_starts : Region_index.positions;
  region_ends : Region_index.positions;
  index : Region_index.t;
  max_regions_per_area : int;
      (** [1] enables the single-region fast paths of the joins *)
  by_name : by_name;
}

(** [extract config doc] scans the document once and builds the
    annotation table and region index. *)
val extract : Config.t -> Standoff_store.Doc.t -> t

(** [annotation_count t] is the number of area-annotations. *)
val annotation_count : t -> int

(** [area_of t pre] is the area of annotation [pre], if [pre] is an
    area-annotation. *)
val area_of : t -> int -> Standoff_interval.Area.t option

(** [slot_of t pre] is the slot of annotation [pre] in [ids]/[areas],
    or [-1] when [pre] is not an area-annotation.  O(1). *)
val slot_of : t -> int -> int

(** [is_annotation t pre] tests membership in O(1). *)
val is_annotation : t -> int -> bool

(** [restrict_ids t ~candidates] intersects the sorted candidate pre
    array with the annotation ids, returning the sorted pres that are
    both candidates and area-annotations. *)
val restrict_ids : t -> candidates:int array -> int array

(** [candidate_index t ~name] is the §4.3 candidate sequence: the
    region index restricted to the annotations named [name] ([None]
    means the entire index).  Built from the candidate side on the
    first use of [name] and kept, so loop-lifted queries pay for each
    name once per table. *)
val candidate_index : t -> name:string option -> Region_index.t

(** [candidate_ids t ~name] is the sorted array of the annotation pres
    [candidate_index t ~name] holds rows of. *)
val candidate_ids : t -> name:string option -> int array

(** [candidate_index_scan t ~candidates] is the same restriction
    computed the way the paper's pre-loop-lifting engine computes it on
    {e every} invocation: one full scan of the region index,
    intersecting on node id (§4.3).  The per-iteration strategies use
    this — "repeated full scans of the region index" is precisely why
    Basic StandOff MergeJoin does not finish XMark Q2 (§4.6). *)
val candidate_index_scan : t -> candidates:int array option -> Region_index.t

(** [move t ~pre region] patches [t] after annotation [pre]'s single
    region was set to [region] in the document: it rewrites [pre]'s area,
    moves its one index row to its new sorted slot
    ({!Region_index.move_row}), in the full index and in the index of
    [pre]'s name if that one is built.
    The result equals a fresh {!extract} of the changed document.  Run
    under the document's write exclusion only.
    @raise Invalid_argument if [pre] is not an annotation of [t] or its
    area has several regions. *)
val move : t -> pre:int -> Standoff_interval.Region.t -> unit
