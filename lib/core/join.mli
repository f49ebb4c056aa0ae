(** The StandOff join dispatcher: strategy selection, per-iteration
    vs. loop-lifted invocation, anti-join complements, and the paper's
    post-processing to unique node ids in document order (§4.4–4.5).

    The two entry points mirror how an XQuery engine calls axis steps:

    - {!run_sequence} evaluates one operator for a single context
      node sequence, like the non-lifted Staircase Join;
    - {!run_lifted} evaluates it for a whole [iter|item] table at
      once.  Under the {!Config.Loop_lifted} strategy this is a single
      merge-join sweep; under every other strategy the engine behaviour
      of the paper is reproduced faithfully: the single-sequence
      algorithm is re-invoked {e per iteration}, re-scanning the
      candidate index each time — which is exactly why Basic StandOff
      MergeJoin DNFs on XMark Q2 (Figure 6). *)

(** Per-call instrumentation, accumulated across join invocations:
    how many times the underlying algorithm ran (once for a
    loop-lifted sweep, once {e per iteration} otherwise) and how many
    candidate region-index rows those runs built or scanned.  The
    EXPLAIN ANALYZE output surfaces both, making the per-iteration
    rescan cost of the non-lifted strategies visible. *)
type stats = {
  mutable s_invocations : int;
  mutable s_index_rows : int;
  mutable s_chunks : int;
      (** parallel sweep chunks across invocations: loop-lifted sweeps
          contribute their chunk count (1 when sequential), the
          per-iteration and UDF paths 0 — so [> 1] means a join really
          fanned out *)
}

val fresh_stats : unit -> stats

(** [auto_strategy annots ~context_rows ~candidate_rows] picks a
    strategy for one operator invocation from its input sizes
    ([candidate_rows = None] means all area-annotations are
    candidates).  All strategies are result-equivalent, so this is
    purely a cost decision. *)
val auto_strategy :
  Annots.t -> context_rows:int -> candidate_rows:int option -> Config.strategy

(** [run_sequence op strategy annots ?deadline ~context ~candidates]
    evaluates one operator between a context pre array and candidate
    pres ([None] = no restriction, i.e. all area-annotations).
    Returns sorted duplicate-free pres.
    @raise Standoff_util.Timing.Deadline_exceeded on timeout. *)
val run_sequence :
  Op.t ->
  Config.strategy ->
  Annots.t ->
  ?active_set:Active_set.kind ->
  ?deadline:Standoff_util.Timing.deadline ->
  ?stats:stats ->
  context:int array ->
  candidates:int array option ->
  unit ->
  int array

(** The candidate side of a lifted join. *)
type candidates =
  | All  (** every area-annotation *)
  | Named of string
      (** the elements of that name: a pushed-down name test, served by
          the table's per-name index ({!Annots.candidate_index}) *)
  | Pres of int array
      (** an explicit sorted pre set, restricted by a scan of the full
          index on every call ({!Annots.candidate_index_scan}) *)

(** [run_lifted op strategy annots ?deadline ~loop ~context_iters
    ~context_pres ~candidates ()] evaluates one operator for every
    iteration of [loop].  [context_iters]/[context_pres] are parallel
    arrays sorted by [(iter, pre)]; [loop] lists every live iteration
    (iterations without context rows matter to the reject operators,
    which return {e all} candidates for them).  The result is parallel
    [(iters, pres)] arrays, per-iteration duplicate-free and in
    document order.

    With a [pool] of more than one job, the {!Config.Loop_lifted}
    strategy partitions the loop relation on iteration boundaries
    (iterations are independent by construction, §4 Listing 1) and
    runs one merge sweep per chunk against the shared immutable
    candidate index; chunk outputs are concatenated in chunk order, so
    the result is identical to the sequential sweep.  The [deadline]
    is honoured inside every chunk. *)
val run_lifted :
  Op.t ->
  Config.strategy ->
  Annots.t ->
  ?pool:Standoff_util.Pool.t ->
  ?active_set:Active_set.kind ->
  ?deadline:Standoff_util.Timing.deadline ->
  ?stats:stats ->
  loop:int array ->
  context_iters:int array ->
  context_pres:int array ->
  candidates:candidates ->
  unit ->
  int array * int array
