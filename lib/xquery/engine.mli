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

    Nodes built by element constructors live in the run's own arena
    ({!Standoff_store.Collection.run_view}), never in the shared
    collection: a constructing query is an ordinary reader.  The arena
    is dropped when the run ends, so a constructed node is consumed
    through [serialized]; its handle in [items] is local to the run
    (see {!result}).

    An engine is safe to share between domains: it owns a
    writer-preferring readers–writer lock.  {!prepare},
    {!run_prepared}, {!run}, {!explain} and {!explain_analyze} take its
    shared side, once per call; {!set_region}, {!shift_annotations},
    {!ingest}, {!snapshot} and {!shutdown} take its exclusive side, so
    an update never races an evaluation reading the region arrays it
    patches (see {!Standoff.Update}).  A run's clock starts once the
    shared lock is granted, so [standoff_query_seconds] excludes lock
    wait.  An engine created over a
    {!Standoff.Durable} store logs every successful update to the
    store's WAL inside that exclusive section. *)

type t

(** Query caching levels.  [Cache_plan] reuses prepared plans across
    {!run} calls with the same text and effective strategy (parse +
    optimize are skipped).  [Cache_result] additionally serves
    byte-identical results for repeat runs, keyed on (plan fingerprint,
    context document, document count) and stamped with the
    catalogue's invalidation version — any [Update.*] (through
    {!Standoff.Catalog.regions_changed}) expires every earlier entry,
    so a cached result can never survive an update.  Runs that construct
    nodes are cached like any other: their bytes are exact, and their
    constructed items are run-local handles either way.
    [Cache_result] implies plan caching. *)
type cache_mode = Cache_off | Cache_plan | Cache_result

(** The engine settings.  Each is parsed by exactly one function
    below, which every source shares: the command-line flags of
    [standoff-cli query] and [standoff-server], the environment
    ({!of_env}) and the HTTP server's per-request parameters.  The
    strategy parses with {!Standoff.Config.strategy_of_string}, as a
    prolog [declare option standoff-strategy] does.  Every parser
    raises [Invalid_argument] on a malformed value. *)
module Options : sig
  type t = {
    strategy : Standoff.Config.strategy option;
        (** engine-wide strategy pin; [None] lets each StandOff
            operator pick its own from annotation statistics *)
    jobs : int;
        (** parallelism cap per run; [1] is the exact sequential path,
            [0] is adaptive (each run sized from its plan cost) *)
    cache : cache_mode;
    dataguide : bool;
        (** the DataGuide path index: collapse rewrite and per-path
            statistics; results are byte-identical either way *)
    slow_ms : float option;
        (** slow-query-log threshold in milliseconds; [None] disables
            the log *)
    cache_bytes : int;  (** the result cache's byte budget *)
  }

  (** [default]: auto strategy, adaptive jobs, no caching, DataGuide
      on, slow log off, a 64 MiB result cache. *)
  val default : t

  (** [of_env ()] is {!default} overridden by the environment:
      [STANDOFF_JOBS], [STANDOFF_CACHE], [STANDOFF_CACHE_MB] (a whole
      number of MiB, at least 1, spelled as for {!jobs_of_string}),
      [STANDOFF_DATAGUIDE] and [STANDOFF_SLOW_MS].  An empty variable
      counts as unset.  The only reader of these variables.
      @raise Invalid_argument on a malformed value, with a message
      that names the variable. *)
  val of_env : unit -> t

  (** [override ?strategy ?jobs ?slow_ms ?cache ?dataguide o] is [o]
      with each given field replaced; a [jobs] below 0 means 0. *)
  val override :
    ?strategy:Standoff.Config.strategy ->
    ?jobs:int ->
    ?slow_ms:float ->
    ?cache:cache_mode ->
    ?dataguide:bool ->
    t ->
    t

  (** [decimal of_string what s]: an optional ['-'] then decimal digits
      and nothing else, converted by [of_string] (which fails only on
      overflow); also the HTTP server's integer parameters.
      @raise Invalid_argument naming [what] otherwise. *)
  val decimal : (string -> 'a option) -> string -> string -> 'a

  (** [jobs_of_string s]: a {!decimal} count; a negative one means [0]. *)
  val jobs_of_string : string -> int

  (** [bool_of_string s]: ["on" | "1" | "true" | "yes"] or
      ["off" | "0" | "false" | "no"], case and surrounding blanks
      ignored.  The DataGuide switch and the HTTP [stream] flag. *)
  val bool_of_string : string -> bool

  (** [cache_of_string s]: ["off" | "none" | "plan" | "result"], or a
      {!bool_of_string} spelling (on means [Cache_result]). *)
  val cache_of_string : string -> cache_mode

  val cache_to_string : cache_mode -> string

  (** [slow_ms_of_string s]: a finite, non-negative float. *)
  val slow_ms_of_string : string -> float
end

(** [create ?options ?strategy ?jobs ?slow_ms ?cache ?dataguide
    ?durable coll] wraps a collection.  The engine's settings are
    {!Options.override} of the other arguments over [options] (default
    {!Options.of_env}[ ()]); they never change afterwards.  See
    {!Options.t} for what each setting does.  With [jobs] other than
    1, runs submit to the process-wide scheduler
    ({!Standoff_util.Pool}): the loop-lifted merge sweep splits its
    iterations into chunks, and a step over several documents runs one
    shard per document; adaptive runs ([jobs = 0]) scale up to
    {!Standoff_util.Pool.max_parallelism}, so concurrent requests share
    the domain budget instead of each claiming a fixed slice.  Runs at
    least [slow_ms] slow are recorded in {!Standoff_obs.Slow_log}.
    With [durable], [coll] must be {!Standoff.Durable.collection}
    [durable]: each successful update is logged (on disk under the
    [Always] fsync policy) before the call returns, and the store's
    [snapshot_every] compaction runs on the update path.
    @raise Invalid_argument when [options] is omitted and the
    environment holds a malformed setting, or when [coll] is not
    [durable]'s collection. *)
val create :
  ?options:Options.t ->
  ?strategy:Standoff.Config.strategy ->
  ?jobs:int ->
  ?slow_ms:float ->
  ?cache:cache_mode ->
  ?dataguide:bool ->
  ?durable:Standoff.Durable.t ->
  Standoff_store.Collection.t ->
  t

(** [options t] is the engine's settings. *)
val options : t -> Options.t

(** [plan_cache_stats t] / [result_cache_stats t] are exact per-engine
    hit/miss/eviction/size snapshots ({!Standoff_cache.Lru.stats});
    the same numbers are exported process-wide through
    {!Standoff_obs.Metrics} as [standoff_cache_*{cache="plan"}] and
    [standoff_cache_*{cache="result"}]. *)
val plan_cache_stats : t -> Standoff_cache.Lru.stats

val result_cache_stats : t -> Standoff_cache.Lru.stats

(** [durable t] holds when [t] was created over a durable store. *)
val durable : t -> bool

(** [shutdown t] closes the durable store, if any, after a shutdown
    snapshot when it is dirty (so the next boot replays nothing); no
    update may follow.  It also parks the process-wide scheduler's
    worker domains ({!Standoff_util.Pool.park}), which all engines
    share — harmlessly: a run submitting during the teardown completes
    on its own domain, and workers respawn on the next parallel run.
    Call it when going quiet (domains are a bounded OS resource). *)
val shutdown : t -> unit

(** [collection t] is the underlying collection. *)
val collection : t -> Standoff_store.Collection.t

(** [catalog t] is the annotation catalogue (region indexes). *)
val catalog : t -> Standoff.Catalog.t

(** [set_region t config doc ~pre region] is
    {!Standoff.Update.set_region} on the engine's catalogue under the
    exclusive lock, followed — only on success — by its WAL record and
    a due compaction on a durable engine.
    @raise Invalid_argument as [Update.set_region] does, before
    anything is changed or logged. *)
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
    logs {e one} batched {!Standoff_store.Wal.Ingest} record on a
    durable engine — so ingesting N documents costs one invalidation
    and one WAL fsync, not N.  Returns the number of documents added.
    Runs under the exclusive lock, as the other updates do. *)
val ingest :
  t ->
  ?config:Standoff.Config.t ->
  Standoff_store.Doc.t list ->
  (string * string) list ->
  int

(** [snapshot t] writes a compacting snapshot of a durable engine's
    store under the exclusive lock, resets its WAL, and returns the
    snapshot's path ({!Standoff.Durable.snapshot}, stamped with the
    catalogue version); [None] when [t] has no store. *)
val snapshot : t -> string option

(** Everything a query run produces. *)
type result = {
  items : Standoff_relalg.Item.t list;
      (** handles into the shared collection, except for constructed
          nodes: those point into the run's arena, which is gone when
          the run returns, so only their count and position mean
          anything afterwards ({!Standoff_store.Collection.doc} rejects
          them) *)
  serialized : string;  (** rendered while the arena was alive *)
  config : Standoff.Config.t;  (** the configuration after the prolog *)
  trace : Standoff_obs.Trace.span option;
      (** the closed root span of the run, when tracing was on *)
}

(** A parsed, lowered, optimized query, ready to evaluate any number
    of times. *)
type prepared

(** The optimized body plan (for tests and plan inspection). *)
val prepared_plan : prepared -> Plan.t

(** [prepared_constructs p] holds when evaluating [p] may build nodes
    in the run's arena (an element constructor occurs in the body, a
    global variable, or any declared function — the function check is
    conservative: declared-but-uncalled constructors still count).
    Nothing in the system needs it any more; it stays for the served
    benchmark's traced replay, which passes it as
    [?rollback_constructed]. *)
val prepared_constructs : prepared -> bool

(** [prepare t ?strategy ?optimize ?dataguide ?trace query] parses
    [query] and lowers it to a plan.  With [optimize:false] (default
    [true]) the optimizer pass is skipped and the structural lowering
    is evaluated as-is — the direct path, used to validate rewrites.
    [dataguide] overrides the engine-wide DataGuide default for this
    preparation only (collapse rewrite + per-path statistics); it
    never changes results.  With [trace], the parse and
    lowering/optimize phases are recorded as ["parse"] and
    ["optimize"] spans.  When the engine caches plans (its
    {!Options.t} [cache] other than [Cache_off]), a repeat [prepare] with the same text,
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

(** [run_prepared t ?deadline ?context_doc ?trace prepared] evaluates
    a prepared query through a fresh run view of the collection, and
    drops the view (and all it constructed) when it returns.  [context_doc]
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
    Without an override, an engine in adaptive mode ([jobs = 0])
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

    [rollback_constructed] is accepted and ignored: every run drops
    its constructed nodes now.  It stays because the served
    benchmark's input and traced-replay code pass it, and that code
    changes only together with the benchmark.
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
    composed with {!run_prepared}; [rollback_constructed] is ignored,
    as there.
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
    inclusive wall times.  The result cache is bypassed (a hit evaluates nothing and would render
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
