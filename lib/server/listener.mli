(** The HTTP front door shared by {!Server} and the shard router: bind,
    accept, read, authenticate, dispatch, reply.

    An instance supplies only what differs between the two: its route
    table, its admission policy (what happens to an accepted connection
    — queued for a worker domain, or handed a thread) and its readiness
    signal.  Everything between the socket and a handler lives here
    once: the self-pipe-woken acceptor, the 503 shed, the
    per-connection read loop with its 400/413/501 mapping and keep-alive
    bound, the bearer gate, the 404/405 table derived from the routes,
    [/healthz] with its [?ready=] readiness probe, the [Full]/[Stream]
    reply writer, and stop.

    Metrics are registered under [standoff_<name>_]: [connections_total],
    [shed_total], [request_seconds] (observed around dispatch only,
    excluding the socket write), [requests_total{code}],
    [streamed_total] and [stream_truncated_total]. *)

(** {1 Replies} *)

(** A reply body is either fully materialized ([Full], written with a
    [Content-Length]) or a stream ([Stream], written with chunked
    transfer encoding as the producer emits).  The head of a stream is
    committed on the producer's first [emit] (an empty string commits
    it too).  A stream that fails before then downgrades to the
    buffered reply [on_error] maps the exception to; one that fails
    after it is aborted without the terminating chunk — the truncation
    signal on the wire — and the connection is closed. *)
type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : body;
}

and body = Full of string | Stream of stream

and stream = {
  sf : (string -> unit) -> unit;
  on_error : exn -> reply;  (** must be total and return a [Full] body *)
}

val text_reply : ?headers:(string * string) list -> int -> string -> reply
val json_reply : ?headers:(string * string) list -> int -> string -> reply

(** [json_error status msg] is [{"error": msg}] (plus
    ["request_id"] and the raw JSON members [extra], when given). *)
val json_error :
  ?request_id:string -> ?extra:string -> int -> string -> reply

(** The Prometheus text exposition [body] as a 200. *)
val metrics_reply : string -> reply

(** [unavailable msg] is a JSON 503 with [Retry-After: 1]. *)
val unavailable : string -> reply

(** {1 Routes} *)

(** One endpoint.  The route table is the only list of paths an
    instance keeps: dispatch, the [405] with its [Allow] header and the
    [404] are all derived from it.  When an auth token is configured a
    [protected] route requires [Authorization: Bearer] (compared in
    constant time) before anything else is decided, [401] with
    [WWW-Authenticate: Bearer] otherwise; a protected route below the
    root also guards the rest of its directory, so [/admin/snapshot]
    covers every [/admin/*] path. *)
type route = {
  methods : string list;
  path : string;
  protected : bool;
  handler : Http.request -> reply;
}

(** [route ?protected methods path handler]; [protected] defaults to
    [false]. *)
val route :
  ?protected:bool -> string list -> string -> (Http.request -> reply) -> route

(** {1 Lifecycle} *)

type t

(** [create ~name ~host ~port] binds and listens (so {!port} is known)
    but accepts nothing until {!start}.  [name] (["server"],
    ["router"]) prefixes the metrics and the log lines.
    @raise Unix.Unix_error when binding fails. *)
val create : name:string -> host:string -> port:int -> t

(** The bound port — the configured one, or the kernel-chosen one for
    port [0]. *)
val port : t -> int

(** Whether {!stop} has begun.  Keep-alive replies say
    [Connection: close] from then on and [/healthz?ready=1] answers
    503 ["draining"]. *)
val stopping : t -> bool

(** Whether {!start} has run and {!stop} has not completed. *)
val running : t -> bool

(** [start t ~routes ~not_ready ~admit ...] spawns the acceptor.

    - [routes]: the endpoints; [GET /healthz] is added in front of
      them.  [not_ready ()] is [None] when [/healthz?ready=1] should
      answer 200 ["ready"], [Some why] for a 503 saying [why].
      [?ready=] takes any
      {!Standoff_xquery.Engine.Options.bool_of_string} spelling (off
      means the liveness answer); another value is a 400.
    - [gate]: consulted after the bearer gate and before dispatch; a
      [Some reply] answers the request in place of its route.
    - [admit fd]: the admission policy.  It takes ownership of an
      accepted connection — arranging for {!serve} to run on it and
      for the descriptor to be closed afterwards — or returns [false],
      and the connection is shed with a 503 [shed_message] and
      [Retry-After].
    - [max_body] caps request bodies (413), [max_requests] bounds the
      requests one connection may carry, [socket_timeout_s] is the
      send and receive timeout set on every accepted socket.
    @raise Invalid_argument if already started or stopped. *)
val start :
  ?gate:(Http.request -> reply option) ->
  t ->
  routes:route list ->
  not_ready:(unit -> string option) ->
  auth_token:string option ->
  max_body:int ->
  max_requests:int ->
  socket_timeout_s:float ->
  shed_message:string ->
  admit:(Unix.file_descr -> bool) ->
  unit

(** [serve t fd] answers every request connection [fd] carries, then
    returns.  Once {!start} has run it never raises, and it never
    closes [fd]: the admission policy that accepted it owns the close. *)
val serve : t -> Unix.file_descr -> unit

(** [stop t ~drain] stops accepting: the acceptor is woken and joined
    and the listening socket closed.  A running listener then runs
    [drain] (the instance's wait for its in-flight connections) before
    {!running} turns false.  Idempotent; later calls return at once. *)
val stop : t -> drain:(unit -> unit) -> unit
