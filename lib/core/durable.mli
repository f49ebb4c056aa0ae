(** Durable store coordinator: snapshot + WAL recovery and logging.

    A data directory holds one append-only WAL ([wal.log]) and a small
    set of {!Standoff_store.Snapshot} files.  Boot-time recovery loads
    the newest intact snapshot, replays the WAL records past its LSN
    through {!Update}, and verifies the recovered documents' structural
    invariants before handing the collection out.

    Ordering contract with callers: apply the update to the in-memory
    collection first, then {!log} it — so every WAL record is an
    operation that validated against this store, and replay cannot hit
    an [Invalid_argument] that the live path did not.  The query engine
    ([Standoff_xquery.Engine.create ~durable]) keeps it, under its
    exclusive lock. *)

exception Recovery_error of string
(** The WAL and the base state disagree (record names an unknown
    document, or no longer applies) or a recovered document fails its
    invariants.  Distinct from torn-tail truncation, which is handled
    silently, and from {!Standoff_store.Wal.Corrupt}. *)

type t

type recovery = {
  rec_snapshot : (int * string) option;  (** (lsn, path) loaded, if any *)
  rec_replayed : int;  (** WAL records applied past the snapshot *)
  rec_torn : string option;  (** torn-tail reason, when replay stopped early *)
}

val open_dir :
  ?policy:Standoff_store.Wal.fsync_policy ->
  ?snapshot_every:int ->
  ?keep:int ->
  ?seed:(unit -> Standoff_store.Collection.t) ->
  string ->
  t * recovery
(** [open_dir dir] recovers (or initialises) the store in [dir],
    creating the directory if needed.  [seed] builds the initial
    collection for a data directory with no snapshot — once a snapshot
    exists it takes precedence and [seed] is not called.
    [snapshot_every] enables automatic compaction via
    {!maybe_snapshot} every n logged updates (0 = manual only).
    [keep] is how many snapshot files {!snapshot} retains.
    @raise Standoff_store.Wal.Corrupt on inexplicable WAL damage.
    @raise Recovery_error when replay does not fit the base state. *)

val collection : t -> Standoff_store.Collection.t

val log : t -> Standoff_store.Wal.op -> int
(** Appends one already-applied update to the WAL and returns its LSN.
    Under the [Always] policy the record is on disk on return — the
    caller may acknowledge the update. *)

val snapshot : t -> generation:int -> string
(** Writes a snapshot of the current collection, resets the WAL, and
    prunes old snapshot files; returns the new snapshot's path.
    [generation] is the catalog version stamp.  The collection is
    encoded in place, so the engine calls it under its exclusive lock
    ([Standoff_xquery.Engine.snapshot]). *)

val maybe_snapshot : t -> generation:int -> string option
(** Runs {!snapshot} iff [snapshot_every] updates have been logged
    since the last one. *)

val dirty : t -> bool
(** Updates logged since the last snapshot? *)

val close : ?generation:int -> t -> unit
(** Flushes and closes the WAL.  When [generation] is given and the
    store is dirty, a final shutdown snapshot is written first so the
    next boot replays nothing. *)
