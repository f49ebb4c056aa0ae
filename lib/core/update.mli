(** Region updates on stored annotation documents.

    The paper's §3.3 argues for per-document region indexes partly on
    update grounds (a collection-global index "may cause needless
    transaction conflicts among documents in case of updates").  This
    module provides the update primitive that discussion presupposes:
    changing an annotation's region in place and carrying exactly the
    owning document's derived indexes forward.  {!set_region} patches
    them: the annotation's one row moves to its new sorted slot in the
    cached region index, and the cached DataGuide is re-stamped, since
    no element path changed.  {!shift_annotations} drops the region
    index, to be rebuilt on the next StandOff step, and also keeps the
    guide.

    Only the attribute representation is updatable in place (regions
    are attribute values); element-representation regions are document
    structure and require re-loading the document.

    Every update ends in {!Catalog.regions_changed}, which bumps the
    document's generation counter and the catalogue-wide
    {!Catalog.version} — the stamp that makes generation-keyed caches
    (the engine's result cache, see {!Standoff_cache.Lru}) update-safe:
    a result cached before the update can never be served after it.

    The patch mutates index arrays that queries read without a lock, so
    every update must run under write exclusion: no query on the
    collection may run concurrently.  [Standoff_xquery.Engine]'s
    update entry points provide it with the exclusive side of the
    engine's readers–writer lock. *)

(** [set_region cat config doc ~pre region] rewrites the [start]/[end]
    attributes of annotation [pre] under [config]'s names and patches
    the document's cached annotation table under [config] in place
    (other configurations' tables are dropped).
    @raise Invalid_argument if [config] uses the element
    representation, or if [pre] is not an element carrying both region
    attributes. *)
val set_region :
  Catalog.t ->
  Config.t ->
  Standoff_store.Doc.t ->
  pre:int ->
  Standoff_interval.Region.t ->
  unit

(** [shift_annotations cat config doc ~from ~by] moves every annotation
    whose region starts at or after position [from] by [by] positions —
    the standard maintenance operation after inserting or deleting BLOB
    content.  Returns the number of annotations moved.
    @raise Invalid_argument as {!set_region}, or when a shifted region
    would become negative. *)
val shift_annotations :
  Catalog.t ->
  Config.t ->
  Standoff_store.Doc.t ->
  from:int64 ->
  by:int64 ->
  int
