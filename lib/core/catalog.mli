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

(** [regions_changed cat doc change] reports a region-only update of
    [doc] — every {!Update} entry point ends here.  It bumps
    [doc]'s generation and the catalogue-wide {!version}, which is what
    makes generation-stamped caches update-safe: a result cached before
    the change carries an older stamp and can never be served again.
    It carries [doc]'s derived indexes forward where it can:
    - for [Moved], the cached table of [config] is patched in place
      ({!Annots.move}: one row moves in the full index and in its
      name's index) and tables of other configurations are dropped;
    - for [Shifted], every cached table of [doc] is dropped;
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

(** [generation cat name] is the number of updates reported for the
    document called [name].  Monotonic; [0] for never-updated
    (including unknown) names, and the counter survives the cached
    entries — invalidation must outlive the rebuild. *)
val generation : t -> string -> int

(** [version cat] is the catalogue-wide invalidation counter: the sum
    of every per-document generation bump.  Monotonic, so two equal
    readings bracket an interval with no invalidation at all — the
    stamp the engine's result cache uses. *)
val version : t -> int
