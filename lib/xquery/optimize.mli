(** Rule-based rewriter over {!Plan.t}.

    A single bottom-up pass applies constant folding, step/filter
    fusion (positional and [self::name] predicates), node-test
    pushdown into StandOff-join candidate sets (paper §4.3), and
    strategy pinning.  All rewrites are result-preserving. *)

(** Collection statistics consulted by the pushdown rule and the cost
    model. *)
type stats = {
  st_annotations : unit -> int;
      (** total area-annotations across the collection *)
  st_named : string -> int;  (** total elements with this name *)
  st_path : (bool * string) list -> int;
      (** elements a collapsed child/descendant path reaches — the
          DataGuide's per-path cardinality when guides are on, the
          final step's name count otherwise *)
}


(** [collection_stats ?dataguide coll catalog config] derives lazy
    statistics from the collection's cached {!Standoff.Annots} tables.
    With [dataguide:true], [st_path] answers from each document's
    strong DataGuide ({!Standoff_store.Dataguide}), built lazily at
    the document's current catalogue generation.  Documents whose
    region markup is invalid under [config] contribute nothing (the
    error still surfaces when a query touches them). *)
val collection_stats :
  ?dataguide:bool ->
  Standoff_store.Collection.t ->
  Standoff.Catalog.t ->
  Standoff.Config.t ->
  stats

(** [optimize ?pin_strategy ?stats ?dataguide p] is the rewritten
    plan.  [pin_strategy] forces every StandOff operator to that
    strategy (engine-wide override); absent, operators keep their
    {!Plan.strategy_choice}.  With [dataguide:true] (default [false]),
    consecutive child/descendant name steps rooted at a document-node
    source ([doc(…)], the leading-[/] [root(…)]) collapse into a
    single {!Plan.desc.Path_lookup} answered by the DataGuide; results
    are byte-identical either way. *)
val optimize :
  ?pin_strategy:Standoff.Config.strategy ->
  ?stats:stats ->
  ?dataguide:bool ->
  Plan.t ->
  Plan.t

(** [estimate_cost ~stats p] is a coarse work estimate for evaluating
    [p], in rows touched: per StandOff join, the candidate-set size
    its merge sweep scans (named-element count under pushdown, the
    whole annotation population otherwise); per named axis step, the
    matching-element count.  The engine's adaptive parallelism choice
    thresholds on it — cheap requests run sequential and leave domains
    to concurrent requests. *)
val estimate_cost : stats:stats -> Plan.t -> int
