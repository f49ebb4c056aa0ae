(** The shard router: a thin HTTP front that consistent-hashes
    document names onto shard backends — each an ordinary
    [standoff-server] process with its own data directory — and scales
    the system out across processes (and, eventually, machines)
    without the engine learning anything about distribution.

    Placement is {!Chash} over document names: deterministic across
    router restarts, and moving only ~1/n of the corpus when the shard
    count changes.

    Endpoints:
    - [POST /query] — routed to one shard: by [?context=] when given,
      else by the [doc("…")] references in the query text (they must
      all map to the same shard; [400] otherwise, and [400] when a
      reference-free query arrives at a multi-shard topology).  The
      shard's response streams back as it arrives — chunked transfer
      encoding, bounded router memory — with an [X-Standoff-Shard]
      header naming the backend; pass [?stream=1] through to stream
      end-to-end off the shard's serializer too.
    - [POST /update] — routed by the required [?doc=].
    - [POST /ingest] — with [?name=], routed whole by that name;
      framed batches are split per shard by document name and
      forwarded as per-shard sub-batches.  Partial failure is reported
      per document: the JSON answer lists every document with its
      shard and outcome, [200] when every sub-batch succeeded, [502]
      otherwise.
    - [POST /admin/snapshot] — broadcast to every shard; [200] only
      when all succeed.
    - [GET /metrics] — the router's own metrics plus every live
      shard's, each shard sample relabelled with [shard="<name>"]
      (comment lines dropped), plus a synthesized
      [standoff_router_shard_up] gauge per shard.
    - [GET /shards] — the topology as JSON: name, address, placement,
      health, restart count.
    - [GET /healthz] — liveness; [?ready=1] readiness: [200] only when
      every shard answers its own readiness probe, [503] naming the
      laggards otherwise (a shard replaying its WAL after a crash
      shows up here, and requests routed to it answer [503] with
      [Retry-After] until it recovers).

    Managed shards (a {!shard_spec} with [sp_spawn]) are child
    processes the router supervises: spawned on {!start},
    health-checked continuously, restarted with exponential backoff
    (0.2 s doubling to 5 s) when they die, terminated on {!stop}
    (SIGTERM, then SIGKILL after the grace).  External shards (no
    [sp_spawn]) are probed but never spawned.

    The front door is {!Standoff_server.Listener}, the same one the
    server runs: a thread per client connection, at most 128 at once
    ([503] + [Retry-After] past that), 30 s socket timeouts on client
    and shard sockets, readiness probes every 250 ms.

    When [config.auth_token] is set the router enforces
    [Authorization: Bearer] on [/query], [/update], [/ingest] and
    [/admin/*] exactly as the server does (constant-time compare,
    [401] + [WWW-Authenticate] otherwise); [config.shard_token] is
    what the router presents to the shards, letting the whole interior
    run token-protected too. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  max_body_bytes : int;  (** request body cap, 413 past it *)
  auth_token : string option;
      (** token clients must present; [None] = open *)
  shard_token : string option;
      (** token the router presents to shards; [None] = none *)
}

val default_config : config

type shard_spec = {
  sp_name : string;  (** placement identity — must be stable *)
  sp_host : string;
  sp_port : int;
  sp_spawn : (string * string array) option;
      (** [(prog, argv)] to spawn and supervise; [None] = external *)
}

type t

(** [create ?config specs] binds the front socket (so {!port} is
    known) and builds the ring; nothing is spawned until {!start}.
    @raise Invalid_argument on an empty or duplicate-name spec list
    @raise Unix.Unix_error when binding fails. *)
val create : ?config:config -> shard_spec list -> t

(** The bound port — the configured one, or the kernel-chosen one when
    the configuration said [0]. *)
val port : t -> int

(** [shard_of_doc t name] is the shard that owns [name] — the same
    placement the proxy uses. *)
val shard_of_doc : t -> string -> string

(** Whether every shard currently answers its readiness probe. *)
val ready : t -> bool

(** [start t] spawns managed shards, their supervisors and the
    acceptor, and returns.
    @raise Invalid_argument if already started. *)
val start : t -> unit

(** [stop ?grace_s t] shuts down: stop accepting, give in-flight
    proxying up to [grace_s] (default 5 s) to drain, SIGTERM managed
    shards and SIGKILL whatever ignores it past the grace.
    Idempotent. *)
val stop : ?grace_s:float -> t -> unit
