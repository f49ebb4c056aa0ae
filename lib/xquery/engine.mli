(** The query engine façade: parse a query, process its prolog
    ([declare option standoff-*], [declare function], [declare
    variable]), lower it to a {!Plan.t}, optimize, and evaluate it
    against a document collection.

    The pipeline is parse -> {!Plan.lower} -> {!Optimize.optimize} ->
    {!Eval.eval}.  {!prepare} runs the front half once and returns a
    reusable {!prepared} query; {!run} is the one-shot composition.

    Strategy selection is per StandOff operator: with no engine-wide
    override ([create] without [?strategy], no prolog
    [declare option standoff-strategy], no [?strategy] argument) each
    join resolves its own strategy from annotation statistics at run
    time.  An override pins every operator, which is what the paper's
    Figure 6 strategy sweeps use.

    Nodes constructed by element constructors live in scratch documents
    registered in the collection.  By default they stay alive so the
    returned node handles remain valid; callers that run many queries
    (the benchmark harness) pass [rollback_constructed:true] or use
    {!run_with_timeout}, which always rolls back, and consume results
    through [serialized]. *)

type t

(** Query caching levels.  [Cache_plan] reuses prepared plans across
    {!run} calls with the same text and effective strategy (parse +
    optimize are skipped).  [Cache_result] additionally serves
    byte-identical results for repeat runs, keyed on (plan fingerprint,
    context document, document-uid set) and stamped with the
    catalogue's invalidation version — any [Update.*] (through
    {!Standoff.Catalog.regions_changed}) or
    {!Standoff.Catalog.invalidate} expires every earlier entry, so a
    cached result can never survive an update.  Runs that construct
    nodes are never result-cached (their items would dangle after
    rollback).  [Cache_result] implies plan caching. *)
type cache_mode = Cache_off | Cache_plan | Cache_result

(** [cache_mode_of_string s] parses ["off" | "plan" | "result"] (plus
    common boolean spellings; ["on"] means [Cache_result]).
    @raise Invalid_argument on anything else. *)
val cache_mode_of_string : string -> cache_mode

val cache_mode_to_string : cache_mode -> string

(** [default_cache_mode ()] is [STANDOFF_CACHE] from the environment,
    else [Cache_off]. *)
val default_cache_mode : unit -> cache_mode

(** [default_dataguide ()] is [false] when [STANDOFF_DATAGUIDE] is set
    to ["off"], ["0"], ["false"] or ["no"] in the environment, else
    [true] — the DataGuide path index defaults on. *)
val default_dataguide : unit -> bool

(** [create ?strategy ?jobs ?slow_ms ?cache ?dataguide coll] wraps a
    collection.
    Without [strategy], each StandOff operator picks its own strategy
    from annotation statistics ({!Standoff.Join.auto_strategy}).
    [jobs] (default {!Standoff.Config.default_jobs}, i.e.
    [STANDOFF_JOBS] or 0) caps the parallelism of query execution:
    with [jobs = 1] every run takes the exact sequential code path;
    with more, runs submit to the process-wide work-stealing scheduler
    ({!Standoff_util.Pool}) driving parallel merge sweeps, index
    builds, and per-document sharding.  [jobs = 0] means {e adaptive}:
    each run is sized from its plan's cost estimate
    ({!Optimize.estimate_cost}) — cheap requests run sequentially,
    expensive ones scale up to {!Standoff_util.Pool.max_parallelism} —
    so concurrent requests share the domain budget instead of each
    claiming a fixed slice.  [slow_ms]
    is the slow-query-log threshold in milliseconds (default:
    [STANDOFF_SLOW_MS], else disabled); runs at least that slow are
    recorded in {!Standoff_obs.Slow_log}.  [cache] (default:
    [STANDOFF_CACHE], else {!Cache_off}) selects the caching level;
    the result cache's byte budget is 64 MiB, overridable with
    [STANDOFF_CACHE_MB].  [dataguide] (default: {!default_dataguide},
    i.e. [STANDOFF_DATAGUIDE], else on) enables the DataGuide path
    index: downward child/descendant name paths collapse into single
    index probes and the optimizer's statistics answer from per-path
    cardinalities — a pure performance knob, results are
    byte-identical either way. *)
val create :
  ?strategy:Standoff.Config.strategy ->
  ?jobs:int ->
  ?slow_ms:float ->
  ?cache:cache_mode ->
  ?dataguide:bool ->
  Standoff_store.Collection.t ->
  t

(** [cache_mode t] is the engine's caching level. *)
val cache_mode : t -> cache_mode

(** [set_cache_mode t m] reconfigures the caching level.  Existing
    entries stay (they are keyed and stamped safely either way); they
    are simply not consulted while the relevant level is off. *)
val set_cache_mode : t -> cache_mode -> unit

(** [plan_cache_stats t] / [result_cache_stats t] are exact per-engine
    hit/miss/eviction/size snapshots ({!Standoff_cache.Lru.stats});
    the same numbers are exported process-wide through
    {!Standoff_obs.Metrics} as [standoff_cache_*{cache="plan"}] and
    [standoff_cache_*{cache="result"}]. *)
val plan_cache_stats : t -> Standoff_cache.Lru.stats

val result_cache_stats : t -> Standoff_cache.Lru.stats

(** [jobs t] is the configured parallelism cap; [0] means adaptive. *)
val jobs : t -> int

(** [set_jobs t n] reconfigures the parallelism (clamped to >= 0;
    [0] selects adaptive sizing). *)
val set_jobs : t -> int -> unit

(** [slow_ms t] is the slow-query-log threshold, if any. *)
val slow_ms : t -> float option

(** [set_slow_ms t ms] reconfigures the slow-query-log threshold;
    [None] disables logging. *)
val set_slow_ms : t -> float option -> unit

(** [dataguide t] is the engine-wide DataGuide default. *)
val dataguide : t -> bool

(** [set_dataguide t b] reconfigures the engine-wide DataGuide
    default.  Already-cached plans keep the flag they were prepared
    under (the plan-cache key includes it). *)
val set_dataguide : t -> bool -> unit

(** [shutdown _] parks the process-wide scheduler's worker domains
    ({!Standoff_util.Pool.park}).  All engines share the one worker
    set, so this affects them all — harmlessly: a run submitting
    during the teardown completes on its own domain, and workers
    respawn on the next parallel run.  Call it when going quiet
    (domains are a bounded OS resource). *)
val shutdown : t -> unit

(** [collection t] is the underlying collection. *)
val collection : t -> Standoff_store.Collection.t

(** [catalog t] is the annotation catalogue (region indexes). *)
val catalog : t -> Standoff.Catalog.t

(** [set_on_update t hook] installs (or clears) the durability hook:
    it receives the self-contained WAL record of every successful
    in-place update made through {!set_region} /
    {!shift_annotations}.  The server points it at
    [Standoff.Durable.log]. *)
val set_on_update : t -> (Standoff_store.Wal.op -> unit) option -> unit

(** [set_region t config doc ~pre region] is
    {!Standoff.Update.set_region} on the engine's catalogue, followed —
    only on success — by the durability hook.  The caller provides
    write exclusion, exactly as with [Update.set_region]. *)
val set_region :
  t ->
  Standoff.Config.t ->
  Standoff_store.Doc.t ->
  pre:int ->
  Standoff_interval.Region.t ->
  unit

(** [shift_annotations t config doc ~from ~by] — as {!set_region}, for
    {!Standoff.Update.shift_annotations}.  Returns the number of
    annotations moved; a no-op shift (0 moved) is not logged. *)
val shift_annotations :
  t ->
  Standoff.Config.t ->
  Standoff_store.Doc.t ->
  from:int64 ->
  by:int64 ->
  int

(** [ingest t docs blobs] adds a whole batch of new documents and
    blobs to the collection at once — the bulk-load fast path.  The
    batch is validated first (duplicate names within the batch or
    against the collection raise [Invalid_argument] before anything is
    mutated), then every document's region index (under [?config],
    default {!Standoff.Config.default}) and DataGuide are built once,
    the catalogue version is bumped {e once}, and the durability hook
    receives {e one} batched {!Standoff_store.Wal.Ingest} record — so
    ingesting N documents costs one invalidation and one WAL fsync,
    not N.  Returns the number of documents added.  The caller
    provides write exclusion, as with the other updates. *)
val ingest :
  t ->
  ?config:Standoff.Config.t ->
  Standoff_store.Doc.t list ->
  (string * string) list ->
  int

(** [set_strategy t s] pins the engine-wide strategy. *)
val set_strategy : t -> Standoff.Config.strategy -> unit

(** [set_auto_strategy t] removes the engine-wide pin, returning to
    per-operator selection. *)
val set_auto_strategy : t -> unit

(** Everything a query run produces. *)
type result = {
  items : Standoff_relalg.Item.t list;
  serialized : string;  (** materialized before constructed nodes are
                            rolled back *)
  config : Standoff.Config.t;  (** the configuration after the prolog *)
  trace : Standoff_obs.Trace.span option;
      (** the closed root span of the run, when tracing was on *)
}

(** A parsed, lowered, optimized query, ready to evaluate any number
    of times. *)
type prepared

(** The optimized body plan (for tests and plan inspection). *)
val prepared_plan : prepared -> Plan.t

(** The configuration the prolog produced. *)
val prepared_config : prepared -> Standoff.Config.t

(** [prepared_constructs p] holds when evaluating [p] may register
    scratch documents in the collection (an element constructor occurs
    in the body, a global variable, or any declared function — the
    function check is conservative: declared-but-uncalled constructors
    still count).  Concurrent callers (the HTTP server) use it to give
    constructing runs exclusive collection access, so one run's
    checkpoint/rollback pair can never truncate another's scratch
    documents. *)
val prepared_constructs : prepared -> bool

(** [prepare t ?strategy ?optimize ?dataguide ?trace query] parses
    [query] and lowers it to a plan.  With [optimize:false] (default
    [true]) the optimizer pass is skipped and the structural lowering
    is evaluated as-is — the direct path, used to validate rewrites.
    [dataguide] overrides the engine-wide DataGuide default for this
    preparation only (collapse rewrite + per-path statistics); it
    never changes results.  With [trace], the parse and
    lowering/optimize phases are recorded as ["parse"] and
    ["optimize"] spans.  When the engine caches plans ({!cache_mode}
    other than [Cache_off]), a repeat [prepare] with the same text,
    effective strategy, [optimize] and [dataguide] flags returns the
    cached prepared query and records no parse/optimize spans.
    @raise Err.Error on static errors
    @raise Lexer.Syntax_error on parse errors. *)
val prepare :
  t ->
  ?strategy:Standoff.Config.strategy ->
  ?optimize:bool ->
  ?dataguide:bool ->
  ?trace:Standoff_obs.Trace.t ->
  string ->
  prepared

(** [run_prepared t ?deadline ?context_doc ?rollback_constructed
    ?trace prepared] evaluates a prepared query.  [context_doc]
    names the document that leading [/] paths refer to.  With [trace]
    (or [STANDOFF_TRACE=1] in the environment) the run produces a span
    tree — ["eval"] and ["serialize"] phase spans, one span per plan
    operator evaluated — returned closed as [result.trace]; a run
    killed by {!Standoff_util.Timing.Deadline_exceeded} still leaves
    the collector holding a well-formed partial trace.  Every run
    updates the engine metrics and, past the [slow_ms] threshold, the
    slow-query log.

    Under [Cache_result], a repeat run of the same prepared query on
    the same document set returns the byte-identical cached result
    without evaluating (the trace then holds only a root span whose
    ["cache"] attribute is ["hit"]; on evaluated runs it is ["miss"],
    or ["off"] when the result cache is not consulted).
    [use_cache:false] (default [true]) bypasses the result cache for
    one run — {!explain_analyze} uses it, since it needs the
    evaluation spans.  Cache hits still count in the engine metrics.
    [jobs] overrides the engine-wide parallelism for this run only
    (clamped to [>= 1]); the engine configuration is untouched, so
    concurrent runs with different overrides do not interfere.
    Without an override, an engine in adaptive mode ([jobs t = 0])
    sizes the run from the prepared plan's cost estimate.

    Results are byte-identical across every jobs setting: parallel
    runs merge chunk results in chunk order, so parallelism changes
    timing, never output.

    The deadline covers serialization too: a timeout firing while the
    result is rendered raises like one firing during evaluation, and no
    partial output escapes.

    With [emit], the run {e streams}: the serialized result is handed
    to the callback item by item ({!Serialize.sequence_emit}) instead
    of being materialized, and [result.serialized] is [""].  A result-
    cache hit feeds the cached bytes through [emit] in bounded slices;
    a streamed miss is never inserted into the result cache (its bytes
    were handed away).  A deadline firing mid-stream raises after a
    clean prefix has been emitted — the caller owns signalling
    truncation (the HTTP server's chunked encoding does it by omitting
    the terminator).
    @raise Err.Error on dynamic errors
    @raise Standoff_util.Timing.Deadline_exceeded on timeout. *)
val run_prepared :
  t ->
  ?deadline:Standoff_util.Timing.deadline ->
  ?context_doc:string ->
  ?rollback_constructed:bool ->
  ?use_cache:bool ->
  ?jobs:int ->
  ?emit:(string -> unit) ->
  ?trace:Standoff_obs.Trace.t ->
  prepared ->
  result

(** [run t ?strategy ?deadline ?context_doc query] is {!prepare}
    composed with {!run_prepared}.
    @raise Err.Error on static/dynamic errors
    @raise Lexer.Syntax_error on parse errors
    @raise Standoff_util.Timing.Deadline_exceeded on timeout. *)
val run :
  t ->
  ?strategy:Standoff.Config.strategy ->
  ?deadline:Standoff_util.Timing.deadline ->
  ?context_doc:string ->
  ?rollback_constructed:bool ->
  ?trace:Standoff_obs.Trace.t ->
  string ->
  result

(** [run_prepared_sharded t ?deadline ?rollback_constructed prepared]
    fans a prepared query out across every document of the collection
    — one shard per document, the shard's document root as context
    item — and concatenates the shard results in collection order.
    Shards run in parallel on the shared scheduler when the engine's
    effective jobs (configured, or adaptive from plan cost) exceeds 1.
    StandOff steps match only nodes from the same fragment (§3.3), so
    for document-scoped queries this is semantics-preserving.  A
    single checkpoint brackets the fan-out; with
    [rollback_constructed:true] all shards' constructed documents are
    dropped together at the end.  Sharded runs evaluate inside pool
    workers and are therefore never traced ([result.trace = None]).
    Under [Cache_result] sharded runs hit the result cache too, under
    a key distinct from the unsharded form of the same query. *)
val run_prepared_sharded :
  t ->
  ?deadline:Standoff_util.Timing.deadline ->
  ?rollback_constructed:bool ->
  prepared ->
  result

(** [explain t query] renders the optimized physical plan: prolog
    declarations, then the plan trees of user functions, global
    variables, and the query body, with candidate-pushdown and
    strategy decisions visible on every StandOff join.  Evaluates
    nothing.  [optimize:false] shows the raw lowering instead;
    [dataguide:false] shows the plan without path collapse. *)
val explain :
  t ->
  ?strategy:Standoff.Config.strategy ->
  ?optimize:bool ->
  ?dataguide:bool ->
  string ->
  string

(** [explain_analyze t query] runs the query under a trace collector,
    aggregates the span tree into per-node {!Plan.analysis} records,
    and renders the plan annotated with per-operator call counts, row
    cardinalities, region-index rows scanned, resolved strategies, and
    inclusive wall times.  Constructed nodes are rolled back.  The
    result cache is bypassed (a hit evaluates nothing and would render
    every operator "(not executed)"). *)
val explain_analyze :
  t ->
  ?strategy:Standoff.Config.strategy ->
  ?dataguide:bool ->
  ?deadline:Standoff_util.Timing.deadline ->
  ?context_doc:string ->
  string ->
  string

(** [run_with_timeout t ?strategy ?context_doc ~seconds query] is
    {!run} under a wall-clock budget, reporting DNF as
    [Timed_out] — the protocol of the paper's Figure 6. *)
val run_with_timeout :
  t ->
  ?strategy:Standoff.Config.strategy ->
  ?context_doc:string ->
  ?trace:Standoff_obs.Trace.t ->
  seconds:float ->
  string ->
  result Standoff_util.Timing.outcome
