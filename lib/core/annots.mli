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

type restricted_cache
(** A small LRU ({!Standoff_cache.Lru}) of candidate restrictions,
    keyed structurally on the candidate id array — structurally equal
    candidate sets from separate [prepare] calls hit, and the bound
    keeps it from growing without limit.  Safe to share across domains
    (the lock is held under [Fun.protect], so exception paths cannot
    poison it); hit/miss/eviction counts are exported as
    [standoff_cache_*{cache="restricted"}]. *)

(** The arrays of [t] (and of its [index]) are shared by every reader;
    they change in place only through {!move}, under the document's
    write exclusion. *)
type t = private {
  doc : Standoff_store.Doc.t;
  ids : int array;  (** area-annotation pres, sorted *)
  areas : Standoff_interval.Area.t array;  (** parallel to [ids] *)
  index : Region_index.t;
  max_regions_per_area : int;
      (** [1] enables the single-region fast paths of the joins *)
  restricted_cache : restricted_cache;
}

(** [extract ?pool config doc] scans the document once and builds the
    annotation table and region index (index sort parallelised when a
    [pool] is given). *)
val extract : ?pool:Standoff_util.Pool.t -> Config.t -> Standoff_store.Doc.t -> t

(** [annotation_count t] is the number of area-annotations. *)
val annotation_count : t -> int

(** [area_of t pre] is the area of annotation [pre], if [pre] is an
    area-annotation. *)
val area_of : t -> int -> Standoff_interval.Area.t option

(** [is_annotation t pre] tests membership in constant-ish time
    (binary search). *)
val is_annotation : t -> int -> bool

(** [restrict_ids t ~candidates] intersects the sorted candidate pre
    array with the annotation ids, returning the sorted pres that are
    both candidates and area-annotations. *)
val restrict_ids : t -> candidates:int array -> int array

(** [candidate_index t ~candidates] is the §4.3 candidate sequence: the
    region index restricted to [candidates] ([None] means the entire
    index).  Built from the candidate side in O(|candidates| log
    |candidates|) and cached per candidate set (structural key, small
    LRU), so a loop-lifted query pays for it once. *)
val candidate_index :
  ?pool:Standoff_util.Pool.t -> t -> candidates:int array option -> Region_index.t

(** [candidate_index_scan t ~candidates] is the same restriction
    computed the way the paper's pre-loop-lifting engine computes it on
    {e every} invocation: one full scan of the region index,
    intersecting on node id (§4.3).  The per-iteration strategies use
    this — "repeated full scans of the region index" is precisely why
    Basic StandOff MergeJoin does not finish XMark Q2 (§4.6). *)
val candidate_index_scan :
  ?pool:Standoff_util.Pool.t -> t -> candidates:int array option -> Region_index.t

(** [move t ~pre region] patches [t] after annotation [pre]'s single
    region was set to [region] in the document: it rewrites [pre]'s area,
    moves its one index row to its new sorted slot
    ({!Region_index.move_row}) and empties the restricted-index cache.
    The result equals a fresh {!extract} of the changed document.  Run
    under the document's write exclusion only.
    @raise Invalid_argument if [pre] is not an annotation of [t] or its
    area has several regions. *)
val move : t -> pre:int -> Standoff_interval.Region.t -> unit
