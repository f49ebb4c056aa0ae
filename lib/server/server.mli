(** The network query service: a concurrent HTTP/1.1 server over one
    {!Standoff_xquery.Engine}, built from [Unix] sockets, worker
    domains and a bounded admission queue — no dependencies beyond the
    stdlib.  The socket side (accept, read, auth, dispatch, reply) is
    {!Listener}; this module supplies the routes, the readiness signal
    and the admission policy.  It parses requests, calls the engine and
    writes replies: the engine owns the readers–writer lock and the
    durable store, so the server holds neither.

    Endpoints:
    - [POST /query] — XQuery text in the body; knobs as query
      parameters: [?strategy=] pins the StandOff strategy,
      [?jobs=] overrides the engine parallelism for this run,
      [?cache=off] bypasses the result cache, [?dataguide=off]
      prepares without the DataGuide path index (these four parse as
      {!query_settings} says), [?timeout-ms=] sets the
      per-request deadline (clamped to the configured maximum),
      [?context=] names the context document.  Answers
      [200 text/plain] with the serialized result (byte-identical to
      {!Standoff_xquery.Engine.run} plus a trailing newline), [400] on
      static/dynamic query errors, [408] with a partial-trace JSON body
      when the deadline fires.  Every response carries [X-Request-Id]
      and [X-Standoff-Cache: hit|miss|off].  With [?stream=1] the
      result goes out via chunked transfer encoding, serialized item
      by item with bounded buffering (the response carries
      [X-Standoff-Stream: 1] and no [Content-Length]); the bytes are
      identical to the buffered form.  An error before the first
      emitted byte still produces the ordinary buffered error status;
      one mid-stream aborts the body without the terminating chunk, the
      standard truncation signal.
    - [POST /update] — in-place region updates:
      [?doc=NAME&pre=N&start=S&end=E] rewrites one annotation's region;
      [?doc=NAME&op=shift&from=F&by=B] shifts annotations.  Integer
      parameters are an optional [-] then decimal digits that fit the
      type; anything else is a 400.  Runs through
      {!Standoff_xquery.Engine.set_region} /
      {!Standoff_xquery.Engine.shift_annotations}: exclusive with every
      query, ending in {!Standoff.Catalog.regions_changed}, which bumps
      the generation and the catalogue version (so concurrent queries
      can never observe a stale cached result) and patches the
      document's region index and DataGuide forward.  On a durable
      engine the update's WAL record is on disk (per the fsync policy)
      before the 200 is written, and every [snapshot-every] updates a
      compacting snapshot is taken in-line.  The reply's [generation]
      and [version] are read once the engine call has returned: for
      sequential updates they are that update's numbers; under
      concurrent writers they may already include a later update, and
      they never go backwards.
    - [POST /ingest] — bulk load through
      {!Standoff_xquery.Engine.ingest}; its reply's [version] is read
      the same way.
    - [POST /admin/snapshot] — operator-triggered compaction
      ({!Standoff_xquery.Engine.snapshot}): write a snapshot and reset
      the WAL.  [409] when the engine has no durable store (no data
      directory).
    - [GET /explain?q=…] (or [POST /explain] with the query as body) —
      the optimized physical plan, evaluated nothing; [?optimize=off]
      (any {!Standoff_xquery.Engine.Options.bool_of_string} spelling)
      shows the raw lowering instead, and a malformed value is [400].
    - [GET /metrics] — the process-wide
      {!Standoff_obs.Metrics.expose} Prometheus text.
    - [GET /slow] — the slow-query log as JSON.
    - [GET /healthz] — liveness: 200 for as long as the process serves
      HTTP at all.  [GET /healthz?ready=1] (any
      {!Standoff_xquery.Engine.Options.bool_of_string} spelling; a
      malformed value is [400]) — readiness: 503
      ["recovering"] while the store is being replayed (deferred boot,
      see {!create_deferred}), 503 ["draining"] during graceful
      shutdown, 200 ["ready"] otherwise.

    When [config.auth_token] is set, [POST /query], [/update],
    [/ingest] and everything under [/admin/] require
    [Authorization: Bearer <token>] and answer [401] (with
    [WWW-Authenticate: Bearer]) otherwise; the comparison is
    constant-time.  [/healthz] and [/metrics] stay open so probes and
    scrapers need no credentials.  A request with a chunked body is
    refused with [501] (bodies must carry [Content-Length]).

    Production behaviors: admission control (a bounded pending
    connection queue; the acceptor sheds load with
    [503] + [Retry-After] when it is full), per-request deadlines,
    socket read/write timeouts, a request body cap ([413]), keep-alive
    with a per-connection request bound, and graceful shutdown
    ({!stop}: stop accepting, drain queued and in-flight requests up
    to a grace period, then force-close).

    Queries run concurrently on worker domains, under the shared side
    of the engine's readers–writer lock, node-constructing ones
    included: their constructed nodes live in the run's own arena, so
    a query never writes to the collection.  Updates, ingests and
    snapshots take the exclusive side, so they never race an
    evaluation. *)

(** The engine settings one [POST /query] carries as parameters
    ([strategy], [jobs], [cache], [dataguide], [stream]), each parsed
    by the engine's parser for that setting
    ({!Standoff_xquery.Engine.Options}), so every spelling means what
    it means in a flag or an environment variable.  [cache] is an
    opt-out: any spelling of off clears [q_use_cache]; every other
    valid mode leaves it set. *)
type query_settings = {
  q_strategy : Standoff.Config.strategy option;
  q_jobs : int option;
  q_use_cache : bool;
  q_dataguide : bool option;
  q_stream : bool;
}

(** [query_settings req] parses [req]'s engine settings.
    @raise Http.Bad_request on a malformed value. *)
val query_settings : Http.request -> query_settings

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  workers : int;
      (** worker domains serving connections; [0] (the default) means
          auto — half the process domain budget
          ({!Standoff_util.Pool.domain_budget}), at least 1, leaving
          the other half for intra-query parallelism *)
  queue_capacity : int;
      (** pending connections admitted beyond the workers; the
          acceptor sheds with 503 past it *)
  max_body_bytes : int;  (** request body cap, 413 past it *)
  max_requests_per_connection : int;
      (** keep-alive bound; the response that hits it says
          [Connection: close] *)
  default_timeout_ms : float option;
      (** per-request deadline when the client sends no
          [?timeout-ms=]; [None] means no deadline *)
  max_timeout_ms : float;  (** upper clamp for client deadlines *)
  socket_timeout_s : float;  (** receive/send timeout on connections *)
  grace_s : float;  (** {!stop}'s default drain budget *)
  auth_token : string option;
      (** when set, [/query], [/update], [/ingest] and [/admin/*]
          require [Authorization: Bearer <token>]; compared in
          constant time.  Default [None] (no authentication) *)
}

val default_config : config

type t

(** [create ?config engine] binds and listens (so {!port} is known),
    but serves nothing until {!start}.  Updates are durable exactly
    when [engine] was created over a durable store
    ({!Standoff_xquery.Engine.create}[ ~durable]).
    @raise Unix.Unix_error when binding fails. *)
val create : ?config:config -> Standoff_xquery.Engine.t -> t

(** [create_deferred ?config ()] binds and listens like {!create}, but
    over a placeholder engine and with readiness off: after {!start},
    [/healthz] answers 200 while every engine-backed endpoint answers
    [503 Retry-After] and [/healthz?ready=1] says ["recovering"].  The
    caller performs store recovery (typically opening the durable
    store, which may replay a long WAL) and then
    calls {!install_engine} — so a shard stays observable through
    recovery instead of refusing connections.
    @raise Unix.Unix_error when binding fails. *)
val create_deferred : ?config:config -> unit -> t

(** [install_engine t engine] publishes the recovered engine and
    flips the server ready; pair of {!create_deferred}.
    @raise Invalid_argument if an engine was already installed. *)
val install_engine : t -> Standoff_xquery.Engine.t -> unit

(** Whether the server would answer [/healthz?ready=1] with 200: the
    engine is installed and no drain is in progress. *)
val ready : t -> bool

(** The bound port — the configured one, or the kernel-chosen one when
    the configuration said [0]. *)
val port : t -> int

(** The resolved worker-domain count — the configured one, or the
    auto-derived one when the configuration said [0]. *)
val workers : t -> int

(** [start t] spawns the acceptor and the worker domains and returns.
    The workers are registered against the process domain budget
    ({!Standoff_util.Pool.reserve_domains}) for as long as the server
    runs, so query-execution parallelism shrinks to what the budget
    has left rather than multiplying with the worker count.
    @raise Invalid_argument if the server was already started. *)
val start : t -> unit

(** [stop ?grace_s t] shuts down gracefully: stop accepting, let the
    workers drain queued and in-flight requests (keep-alive
    connections are told [Connection: close] on their next response),
    and after [grace_s] (default from the configuration) force-close
    whatever is still open.  Blocks until every worker has exited.
    Idempotent; safe to call from any thread, but not from a signal
    handler — have the handler set a flag instead. *)
val stop : ?grace_s:float -> t -> unit

(** Whether {!start} has run and {!stop} has not completed. *)
val running : t -> bool
