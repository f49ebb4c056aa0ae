(** A domain-safe, size-accounted LRU cache with generation-stamped
    invalidation.

    One mutex guards each cache; every critical section runs under
    [Fun.protect], so an exception raised while the lock is held (an
    allocation failure, an asynchronous [Out_of_memory]) can never
    leave the cache poisoned for the other domains — the bug class the
    original hand-rolled restricted-index cache in [Annots] had.

    {1 The generation-counter invalidation contract}

    Entries are stamped with the [~generation] passed to {!add}
    (default [0]).  A {!find} with [~generation:g] returns the entry
    only when the entry's stamp is exactly [g]; on a mismatch the
    entry is dropped (counted as an eviction) and the lookup reports a
    miss.  Callers use a monotonic counter that some authority bumps
    whenever the cached derivation could change — in this engine,
    [Standoff.Catalog.regions_changed] (reached through every
    [Update.*] entry point) bumps a per-document generation and the
    catalogue-wide version, and the engine's result cache stamps
    entries with that version.  Because the counter only grows, a
    stale entry can never be served: either the stamp matches (nothing was invalidated since
    the entry was stored) or the entry dies on its next lookup.
    Invalidation is therefore O(1) for the writer — bump the counter —
    and lazy for the cache; no key enumeration is ever needed.

    {1 Size accounting}

    Every value is weighed on insertion by the [weight] function given
    to {!create} (clamped to >= 1); the cache evicts from the
    least-recently-used end until both [max_entries] and [max_bytes]
    hold.  A value weighing more than [max_bytes] on its own is not
    inserted at all.  Hit/miss/eviction counts and the current
    bytes/entries are published through {!Standoff_obs.Metrics} as
    [standoff_cache_*{cache="<name>"}], and mirrored in {!stats} for
    callers that need exact per-instance numbers (the metrics are
    shared by every cache created under the same name). *)

type ('k, 'v) t
(** A cache from structurally-compared keys ['k] to values ['v]. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** includes entries dropped as generation-stale *)
  entries : int;
  bytes : int;
}

(** [create ~name ~weight ()] is an empty cache.  [max_entries]
    (default [1024]) and [max_bytes] (default unbounded) cap the
    size; [weight v] is the accounted size of a value in bytes
    (estimates are fine — the point is a stable bound, not exact
    heap accounting).  [name] labels the exported metrics. *)
val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  name:string ->
  weight:('v -> int) ->
  unit ->
  ('k, 'v) t

(** [find t ?generation k] is the cached value for [k] stamped with
    exactly [generation] (default [0]), promoting it to
    most-recently-used.  A generation mismatch drops the entry and
    counts a miss (plus an eviction). *)
val find : ('k, 'v) t -> ?generation:int -> 'k -> 'v option

(** [add t ?generation k v] inserts [v] under [k] stamped with
    [generation] (default [0]), replacing any previous entry for [k]
    and evicting from the LRU end until the caps hold. *)
val add : ('k, 'v) t -> ?generation:int -> 'k -> 'v -> unit

(** [remove t k] drops the entry for [k], if any (not counted as an
    eviction). *)
val remove : ('k, 'v) t -> 'k -> unit

(** [clear t] drops every entry (not counted as evictions); the
    hit/miss/eviction counters keep their values. *)
val clear : ('k, 'v) t -> unit

(** [stats t] is an exact snapshot of this instance's counters. *)
val stats : ('k, 'v) t -> stats

(** [length t] is the number of live entries. *)
val length : ('k, 'v) t -> int
