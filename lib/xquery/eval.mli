(** The loop-lifted evaluator over {!Plan.t} physical plans.

    Plans evaluate to {!Standoff_relalg.Table.t} sequence tables over
    the current loop relation, exactly as in the Pathfinder
    translation the paper builds on (§4.1): a [for] clause expands the
    binding sequence into a fresh inner loop, variables are lifted
    through the map relation, and the return value is mapped back.
    Axis steps — including the four StandOff joins — therefore receive
    the context of {e all} iterations at once, which is what lets the
    {!Standoff.Config.Loop_lifted} strategy answer them in a single
    merge-join sweep while the other strategies are re-invoked per
    iteration.

    The physical operators honour the plan's decisions: fused
    positional predicates, candidate pushdown on StandOff joins, and
    per-operator strategy choice ([S_auto] resolves against the
    engine-wide override, if any, else from {!Standoff.Annots}
    statistics per document).  With a {!Standoff_obs.Trace} collector
    attached, every plan-node evaluation opens a span tagged with the
    node id and row counts, which EXPLAIN ANALYZE aggregates. *)

type env = {
  coll : Standoff_store.Collection.t;
      (** the run's view ({!Standoff_store.Collection.run_view});
          element constructors add their documents to its arena *)
  catalog : Standoff.Catalog.t;
  config : Standoff.Config.t;
  strategy : Standoff.Config.strategy option;
      (** engine-wide strategy override; [None] = per-operator auto *)
  deadline : Standoff_util.Timing.deadline;
  trace : Standoff_obs.Trace.t option;
      (** span collector; single-domain, so only the domain that called
          [Engine.run_prepared] may evaluate under it *)
  span : Standoff_obs.Trace.span option;
      (** the span of the plan node currently evaluating *)
  loop : int array;
  vars : (string * Standoff_relalg.Table.t) list;
  focus : focus option;
  functions : (string, Plan.function_def) Hashtbl.t;
  depth : int;  (** user-function inlining depth (recursion guard) *)
  pool : Standoff_util.Pool.t option;
      (** domain pool for parallel joins, index builds and per-document
          sharding; [None] is the (bit-identical) sequential path *)
  arena_annots : (int, Standoff.Annots.t) Hashtbl.t;
      (** annotation tables of the documents in [coll]'s arena
          ({!Standoff_store.Collection.run_view}), built once per run;
          they never enter [catalog] *)
}

and focus = {
  f_item : Standoff_relalg.Table.t;
  f_pos : Standoff_relalg.Table.t;
  f_last : Standoff_relalg.Table.t;
}

(** [initial_env ~coll ~catalog ~config ~strategy ~deadline ~functions
    ~context ()] is the single-iteration top-level environment;
    [context], when given, becomes the initial context item (used for
    queries with leading [/] paths). *)
val initial_env :
  coll:Standoff_store.Collection.t ->
  catalog:Standoff.Catalog.t ->
  config:Standoff.Config.t ->
  strategy:Standoff.Config.strategy option ->
  ?trace:Standoff_obs.Trace.t ->
  ?pool:Standoff_util.Pool.t ->
  deadline:Standoff_util.Timing.deadline ->
  functions:(string, Plan.function_def) Hashtbl.t ->
  context:Standoff_relalg.Item.t option ->
  unit ->
  env

(** [eval env plan] evaluates [plan] under [env].
    @raise Err.Error on dynamic errors
    @raise Standoff_util.Timing.Deadline_exceeded on timeout. *)
val eval : env -> Plan.t -> Standoff_relalg.Table.t
