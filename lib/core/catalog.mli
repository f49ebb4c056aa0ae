(** Per-document annotation catalogues.

    The region index is part of the document's stored representation
    in the paper ("we added a region index to the relational
    representation of XML documents", §4.3).  This module gives each
    (document, configuration) pair exactly one extracted
    {!Annots.t}, built on first use and carried forward across region
    updates ({!regions_changed}). *)

type t

(** [create ()] is an empty catalogue. *)
val create : unit -> t

(** [annots cat config doc] is the cached annotation table of
    [doc] under [config], extracting it on first request.  Lookups and
    inserts are mutex-protected (extraction itself runs outside the
    lock), so the catalogue may be shared across pool domains. *)
val annots : t -> Config.t -> Standoff_store.Doc.t -> Annots.t

(** [invalidate cat doc] drops cached entries for [doc] (all
    configurations) and bumps both [doc]'s generation counter and the
    catalogue-wide {!version}.  The bump is what makes
    generation-stamped caches update-safe: a result cached before a
    mutation carries an older version stamp and can never be served
    again.  Region updates go through {!regions_changed}, which bumps
    the same counters but keeps the derived indexes. *)
val invalidate : t -> Standoff_store.Doc.t -> unit

(** What a region-only update did to one document's regions.  The
    document's attribute strings are already rewritten when the change
    is reported. *)
type region_change =
  | Moved of {
      config : Config.t;
      pre : int;
      region : Standoff_interval.Region.t;
    }
      (** annotation [pre]'s single region under [config] is now
          [region] ({!Update.set_region}) *)
  | Shifted  (** many regions moved ({!Update.shift_annotations}) *)

(** [regions_changed cat doc change] is the region-only counterpart of
    {!invalidate}: it bumps [doc]'s generation and the catalogue-wide
    {!version} exactly as {!invalidate} does, so generation-stamped
    caches expire the same way, but it carries [doc]'s derived indexes
    forward where it can:
    - for [Moved], the cached table of [config] is patched in place
      ({!Annots.move}: one row moves in the full index and in its
      name's index) and tables of other configurations are dropped;
    - for [Shifted], every cached table is dropped, as by {!invalidate};
    - either way the cached DataGuide, if it was current, is re-stamped
      with the new generation ({!Standoff_store.Dataguide.restamp}),
      because no element path changed.

    The patch mutates arrays that readers share, so call it only under
    the document's write exclusion, like every update. *)
val regions_changed : t -> Standoff_store.Doc.t -> region_change -> unit

(** [bump cat] advances the catalogue-wide version without touching
    any per-document entry or generation — the right invalidation for
    a change to the *document set* (bulk ingestion): new documents
    have no cached state to expire, existing documents' caches stay
    warm, and the single version bump expires whole-collection results
    exactly once per batch. *)
val bump : t -> unit

(** [generation cat name] is the number of times the document called
    [name] has been invalidated.  Monotonic; [0] for never-invalidated
    (including unknown) names, and the counter survives the cached
    entries — invalidation must outlive the rebuild. *)
val generation : t -> string -> int

(** [version cat] is the catalogue-wide invalidation counter: the sum
    of every per-document generation bump.  Monotonic, so two equal
    readings bracket an interval with no invalidation at all — the
    stamp the engine's result cache uses. *)
val version : t -> int
