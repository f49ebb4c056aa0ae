module Engine = Standoff_xquery.Engine
module Err = Standoff_xquery.Err
module Lexer = Standoff_xquery.Lexer
module Timing = Standoff_util.Timing
module Metrics = Standoff_obs.Metrics
module Trace = Standoff_obs.Trace
module Slow_log = Standoff_obs.Slow_log
module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Parser = Standoff_xml.Parser
module Serializer = Standoff_xml.Serializer
module Convert = Standoff_convert.Convert
module Config = Standoff.Config
module Catalog = Standoff.Catalog
module Durable = Standoff.Durable
module Region = Standoff_interval.Region
module Pool = Standoff_util.Pool

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let m_queue_depth =
  Metrics.gauge "standoff_server_queue_depth"
    ~help:"Connections waiting in the admission queue"

let m_in_flight =
  Metrics.gauge "standoff_server_in_flight"
    ~help:"Connections currently being served by a worker"

(* ------------------------------------------------------------------ *)
(* A writer-preferring readers-writer lock.  Queries take the shared
   side; updates and node-constructing queries the exclusive one.
   Writer preference keeps a stream of cheap cached queries from
   starving an update indefinitely. *)

module Rw_lock = struct
  type t = {
    m : Mutex.t;
    readable : Condition.t;
    writable : Condition.t;
    mutable readers : int;
    mutable writing : bool;
    mutable waiting_writers : int;
  }

  let create () =
    {
      m = Mutex.create ();
      readable = Condition.create ();
      writable = Condition.create ();
      readers = 0;
      writing = false;
      waiting_writers = 0;
    }

  let read t f =
    Mutex.lock t.m;
    while t.writing || t.waiting_writers > 0 do
      Condition.wait t.readable t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.m;
        t.readers <- t.readers - 1;
        if t.readers = 0 then Condition.signal t.writable;
        Mutex.unlock t.m)
      f

  let write t f =
    Mutex.lock t.m;
    t.waiting_writers <- t.waiting_writers + 1;
    while t.writing || t.readers > 0 do
      Condition.wait t.writable t.m
    done;
    t.waiting_writers <- t.waiting_writers - 1;
    t.writing <- true;
    Mutex.unlock t.m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.m;
        t.writing <- false;
        Condition.broadcast t.readable;
        Condition.signal t.writable;
        Mutex.unlock t.m)
      f
end

(* ------------------------------------------------------------------ *)
(* The bounded admission queue.  [try_push] never blocks — a full
   queue is the load-shed signal; [pop] blocks until an item arrives
   or the queue is closed and drained. *)

module Bqueue = struct
  type 'a t = {
    m : Mutex.t;
    nonempty : Condition.t;
    items : 'a Queue.t;
    capacity : int;
    mutable closed : bool;
  }

  let create capacity =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      items = Queue.create ();
      capacity;
      closed = false;
    }

  let try_push t x =
    Mutex.lock t.m;
    let ok = (not t.closed) && Queue.length t.items < t.capacity in
    if ok then begin
      Queue.add x t.items;
      Metrics.gauge_set m_queue_depth (Queue.length t.items);
      Condition.signal t.nonempty
    end;
    Mutex.unlock t.m;
    ok

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.items && not t.closed do
      Condition.wait t.nonempty t.m
    done;
    let item =
      if Queue.is_empty t.items then None
      else begin
        let x = Queue.take t.items in
        Metrics.gauge_set m_queue_depth (Queue.length t.items);
        Some x
      end
    in
    Mutex.unlock t.m;
    item

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  max_body_bytes : int;
  max_requests_per_connection : int;
  default_timeout_ms : float option;
  max_timeout_ms : float;
  socket_timeout_s : float;
  grace_s : float;
  auth_token : string option;
}

(* Half the domain budget goes to connection workers, the rest stays
   available for intra-query parallelism — the adaptive engine sizes
   its batches against what the reservation leaves
   ([Pool.max_parallelism]), so the two layers share the budget instead
   of multiplying (workers x jobs domains was the PR-5 inversion). *)
let auto_workers () = max 1 ((Pool.domain_budget () + 1) / 2)

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 0;
    queue_capacity = 64;
    max_body_bytes = 1024 * 1024;
    max_requests_per_connection = 1000;
    default_timeout_ms = Some 30_000.0;
    max_timeout_ms = 300_000.0;
    socket_timeout_s = 30.0;
    grace_s = 10.0;
    auth_token = None;
  }

type t = {
  cfg : config;
  mutable eng : Engine.t;
      (* replaced once by [install_engine] on a deferred boot; the
         [ready] atomic set after it provides the synchronization, so
         no worker dereferences the placeholder past installation *)
  mutable durable : Durable.t option;
      (* durability coordinator; [None] means purely in-memory (no
         --data-dir), in which case /admin/snapshot answers 409 *)
  ready : bool Atomic.t;
      (* readiness: false between [create_deferred] and
         [install_engine] — the WAL-replay window — during which
         engine-backed endpoints answer 503 and [/healthz?ready=1]
         reports "recovering" *)
  lock : Rw_lock.t;
  listener : Listener.t;
  queue : Unix.file_descr Bqueue.t;
  mutable workers : unit Domain.t list;
  live_workers : int Atomic.t;
  (* One slot per worker: the connection it is serving, so [stop] can
     force-close stragglers after the grace period.  Guarded by
     [conn_m] so a shutdown can never race the worker's own close. *)
  conns : Unix.file_descr option array;
  conn_m : Mutex.t;
  next_request : int Atomic.t;
}

let engine t = t.eng
let port t = Listener.port t.listener
let workers t = t.cfg.workers
let running t = Listener.running t.listener

let make ?(config = default_config) ~ready eng =
  let config =
    {
      config with
      workers = (if config.workers <= 0 then auto_workers () else config.workers);
      queue_capacity = max 1 config.queue_capacity;
      max_requests_per_connection = max 1 config.max_requests_per_connection;
    }
  in
  {
    cfg = config;
    eng;
    durable = None;
    ready = Atomic.make ready;
    lock = Rw_lock.create ();
    listener =
      Listener.create ~name:"server" ~host:config.host ~port:config.port;
    queue = Bqueue.create config.queue_capacity;
    workers = [];
    live_workers = Atomic.make 0;
    conns = Array.make config.workers None;
    conn_m = Mutex.create ();
    next_request = Atomic.make 0;
  }

(* Point the engine's durability hook at the WAL: every successful
   in-place update flows through it, and under the Always policy the
   record is on disk before the HTTP response is written — so an
   acknowledged update survives any crash. *)
let wire_durability eng durable =
  match durable with
  | Some d ->
      Engine.set_on_update eng (Some (fun op -> ignore (Durable.log d op)))
  | None -> ()

let create ?config ?durable eng =
  wire_durability eng durable;
  let t = make ?config ~ready:true eng in
  t.durable <- durable;
  t

(* Deferred boot: bind and serve before the store is recovered.  Every
   engine-backed endpoint answers 503 and [/healthz?ready=1] says
   "recovering" until [install_engine] swaps the real engine in — this
   is how a shard stays observable (alive, not ready) through a long
   WAL replay instead of refusing connections. *)
let create_deferred ?config () =
  make ?config ~ready:false (Engine.create (Collection.create ()))

let install_engine t ?durable eng =
  if Atomic.get t.ready then
    invalid_arg "Standoff_server.Server.install_engine: already installed";
  wire_durability eng durable;
  t.eng <- eng;
  t.durable <- durable;
  (* The atomic store publishes the plain field writes above: a worker
     observing [ready = true] sees the installed engine. *)
  Atomic.set t.ready true

let ready t = Atomic.get t.ready && not (Listener.stopping t.listener)

let text_reply = Listener.text_reply
let json_reply = Listener.json_reply
let json_error = Listener.json_error

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)

(* An optional '-' then ASCII digits, the strictness
   [Http.content_length] applies to its header: [int_of_string] would
   also take "0x10", "1_0", "+5", "0b11" or "0u5".  No trimming either,
   since a query string's '+' decodes to a space.  Once only decimal
   digits are left, [of_string] fails exactly on overflow. *)
let decimal_param of_string req name =
  match Http.param req name with
  | None -> None
  | Some v -> (
      let digits =
        if String.starts_with ~prefix:"-" v then
          String.sub v 1 (String.length v - 1)
        else v
      in
      let decimal =
        digits <> ""
        && String.for_all (function '0' .. '9' -> true | _ -> false) digits
      in
      match if decimal then of_string v else None with
      | Some n -> Some n
      | None ->
          raise (Http.Bad_request (Printf.sprintf "malformed %s=%S" name v)))

let int_param = decimal_param int_of_string_opt
let int64_param = decimal_param Int64.of_string_opt

let float_param req name =
  match Http.param req name with
  | None -> None
  | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some f -> Some f
      | None ->
          raise (Http.Bad_request (Printf.sprintf "malformed %s=%S" name v)))

let require what = function
  | Some v -> v
  | None -> raise (Http.Bad_request (Printf.sprintf "missing required %s" what))

let strategy_param req =
  match Http.param req "strategy" with
  | None -> None
  | Some v -> (
      try Some (Config.strategy_of_string v)
      with Invalid_argument m -> raise (Http.Bad_request m))

(* [?cache=off] bypasses the result cache for this run (the engine's
   own caching level is server-wide configuration, not a per-request
   knob — per-request we can only opt out). *)
let use_cache_param req =
  match Http.param req "cache" with
  | None -> true
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "off" | "0" | "false" | "no" -> false
      | "on" | "1" | "true" | "yes" | "result" | "plan" -> true
      | v -> raise (Http.Bad_request (Printf.sprintf "malformed cache=%S" v)))

(* [?dataguide=off] prepares this request without the DataGuide path
   index (no collapse rewrite, name-count statistics) — a pure
   performance knob, results are byte-identical either way. *)
let dataguide_param req =
  match Http.param req "dataguide" with
  | None -> None
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "off" | "0" | "false" | "no" -> Some false
      | "on" | "1" | "true" | "yes" -> Some true
      | v ->
          raise (Http.Bad_request (Printf.sprintf "malformed dataguide=%S" v)))

(* [?stream=1] asks for the result via chunked transfer encoding,
   serialized item by item — bounded buffering however large the
   answer.  Bytes are identical to the buffered form. *)
let stream_param req =
  match Http.param req "stream" with
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "off" | "0" | "false" | "no" -> false
      | "on" | "1" | "true" | "yes" -> true
      | v -> raise (Http.Bad_request (Printf.sprintf "malformed stream=%S" v)))

let deadline_of t req =
  let requested = float_param req "timeout-ms" in
  let effective =
    match (requested, t.cfg.default_timeout_ms) with
    | Some ms, _ -> Some (Float.min ms t.cfg.max_timeout_ms)
    | None, Some ms -> Some ms
    | None, None -> None
  in
  match effective with
  | Some ms when ms > 0.0 -> (Timing.deadline_after (ms /. 1e3), Some ms)
  | Some _ -> (Timing.deadline_after 0.0, Some 0.0)
  | None -> (Timing.no_deadline, None)

let fresh_request_id t =
  Printf.sprintf "r-%d" (Atomic.fetch_and_add t.next_request 1)

let handle_query t req =
  let request_id = fresh_request_id t in
  let with_rid headers = ("X-Request-Id", request_id) :: headers in
  if String.trim req.Http.body = "" then
    json_error ~request_id 400 "empty query body"
  else
    let strategy = strategy_param req in
    let jobs = int_param req "jobs" in
    let use_cache = use_cache_param req in
    let dataguide = dataguide_param req in
    let stream = stream_param req in
    let context_doc = Http.param req "context" in
    let deadline, timeout_ms = deadline_of t req in
    let trace = Trace.create () in
    Trace.set_str (Trace.root trace) "request_id" request_id;
    (* Total error mapper, shared between the buffered path and a
       stream failing before its first emitted byte. *)
    let query_error = function
      | Timing.Deadline_exceeded ->
          (* The engine's cleanup finished the collector, so the partial
             trace is a well-formed span tree — and since the deadline is
             also checked during serialization, no half-written result
             ever reaches this point. *)
          let extra =
            Printf.sprintf ", \"timeout_ms\": %g, \"trace\": %s"
              (Option.value ~default:0.0 timeout_ms)
              (Trace.to_json trace)
          in
          json_error ~request_id ~extra 408 "deadline exceeded"
      | Err.Error msg -> json_error ~request_id 400 msg
      | Lexer.Syntax_error { line; col; msg } ->
          json_error ~request_id 400
            (Printf.sprintf "syntax error at line %d, col %d: %s" line col msg)
      | exn ->
          Printf.eprintf "standoff-server: internal error on %s: %s\n%!"
            req.Http.target (Printexc.to_string exn);
          json_error ~request_id 500 "internal server error"
    in
    try
      (* Prepare and run under the shared lock: preparing reads
         collection statistics, and a run only reads the collection
         (its constructed nodes live in its own arena). *)
      let prepared =
        Rw_lock.read t.lock (fun () ->
            Engine.prepare t.eng ?strategy ?dataguide ~trace req.Http.body)
      in
      if stream then
        (* The run happens lazily inside the stream body, so evaluation
           errors raised before the first emitted byte still downgrade
           to ordinary buffered error replies via [on_error]; a failure
           after it aborts the chunk stream, which is the truncation
           signal.  The lock is held across the emit loop: region reads
           must not interleave with updates, exactly as on the buffered
           path. *)
        let sf emit =
          Rw_lock.read t.lock (fun () ->
              ignore
                (Engine.run_prepared t.eng ~deadline ?context_doc ~use_cache
                   ?jobs ~emit ~trace prepared);
              (* The buffered path appends one newline; keep the bytes
                 identical. *)
              emit "\n")
        in
        {
          Listener.status = 200;
          headers = with_rid [ ("X-Standoff-Stream", "1") ];
          content_type = "text/plain; charset=utf-8";
          body = Listener.Stream { sf; on_error = query_error };
        }
      else
        let result =
          Rw_lock.read t.lock (fun () ->
              Engine.run_prepared t.eng ~deadline ?context_doc ~use_cache
                ?jobs ~trace prepared)
        in
        let cache_attr =
          match result.Engine.trace with
          | Some root ->
              Option.value ~default:"off" (Trace.str_attr root "cache")
          | None -> "off"
        in
        text_reply 200
          ~headers:(with_rid [ ("X-Standoff-Cache", cache_attr) ])
          (result.Engine.serialized ^ "\n")
    with
    | (Timing.Deadline_exceeded | Err.Error _ | Lexer.Syntax_error _) as exn ->
        query_error exn

(* The update endpoint: the region mutations of [Standoff.Update],
   exposed over the wire.  Always exclusive: an in-place attribute
   rewrite must never race an evaluation reading the same document. *)
let handle_update t req =
  let request_id = fresh_request_id t in
  let doc_name = require "doc parameter" (Http.param req "doc") in
  (* The annotation vocabulary defaults to start=/end= attributes; the
     caller can rename via ?start-attr= / ?end-attr= / ?type-attr=. *)
  let config =
    List.fold_left
      (fun cfg (param, opt) ->
        match Http.param req param with
        | Some value -> Config.set_option cfg ~name:opt ~value
        | None -> cfg)
      Config.default
      [ ("start-attr", "start"); ("end-attr", "end"); ("type-attr", "type") ]
  in
  let op = Option.value ~default:"set-region" (Http.param req "op") in
  Rw_lock.write t.lock (fun () ->
      match Collection.doc_id_of_name (Engine.collection t.eng) doc_name with
      | None -> json_error ~request_id 404 ("document not found: " ^ doc_name)
      | Some doc_id -> (
          let doc = Collection.doc (Engine.collection t.eng) doc_id in
          let cat = Engine.catalog t.eng in
          try
            (* The engine wrappers apply the update and, on success,
               feed its WAL record to the durability hook — so by the
               time we build the 200 below, an [--fsync always] server
               has the record on disk. *)
            let detail =
              match op with
              | "set-region" | "set" ->
                  let pre = require "pre parameter" (int_param req "pre") in
                  let start =
                    require "start parameter" (int64_param req "start")
                  in
                  let end_ =
                    require "end parameter" (int64_param req "end")
                  in
                  Engine.set_region t.eng config doc ~pre
                    (Region.make start end_);
                  Printf.sprintf "\"op\": \"set-region\", \"pre\": %d" pre
              | "shift" ->
                  let from =
                    require "from parameter" (int64_param req "from")
                  in
                  let by = require "by parameter" (int64_param req "by") in
                  let moved =
                    Engine.shift_annotations t.eng config doc ~from ~by
                  in
                  Printf.sprintf "\"op\": \"shift\", \"moved\": %d" moved
              | op ->
                  raise (Http.Bad_request (Printf.sprintf "unknown op=%S" op))
            in
            (* Periodic compaction rides the update path: we already
               hold the writer lock, which [Durable.snapshot] requires. *)
            (match t.durable with
            | Some d ->
                ignore
                  (Durable.maybe_snapshot d ~generation:(Catalog.version cat))
            | None -> ());
            json_reply 200
              ~headers:[ ("X-Request-Id", request_id) ]
              (Printf.sprintf
                 "{\"ok\": true, %s, \"doc\": \"%s\", \"generation\": %d, \
                  \"version\": %d, \"durable\": %b}\n"
                 detail
                 (Metrics.json_escape doc_name)
                 (Catalog.generation cat doc_name)
                 (Catalog.version cat)
                 (t.durable <> None))
          with Invalid_argument msg -> json_error ~request_id 400 msg))

(* Bulk ingestion: with [?name=], the whole body is one XML document
   of that name; without it, the body is a sequence of frames
   ({!Http.iter_frames}).  Each part is parsed, converted and shredded
   as the scan reaches it — all before the write lock is taken, so
   concurrent queries keep flowing while a batch is prepared.  The
   batch then goes through [Engine.ingest] in one exclusive section:
   one region-index and DataGuide build per document, one catalogue
   version bump, one WAL record. *)
let handle_ingest t req =
  let request_id = fresh_request_id t in
  let convert =
    match Option.value ~default:"standoff" (Http.param req "convert") with
    | "standoff" -> `Standoff
    | "none" -> `None
    | v -> raise (Http.Bad_request (Printf.sprintf "unknown convert=%S" v))
  in
  let docs = ref [] and blobs = ref [] in
  let add_part name payload =
    match convert with
    | `None -> docs := Doc.parse ~name payload :: !docs
    | `Standoff ->
        let conv = Convert.to_standoff (Parser.parse_string payload) in
        docs := Doc.of_dom ~name conv.Convert.doc :: !docs;
        blobs := (name ^ ".blob", conv.Convert.blob) :: !blobs
  in
  match
    (match Http.param req "name" with
    | Some name ->
        if String.trim req.Http.body = "" then
          raise (Http.Bad_request "empty ingest body");
        add_part name req.Http.body
    | None -> Http.iter_frames req.Http.body add_part)
  with
  | exception Parser.Parse_error { line; col; msg } ->
      json_error ~request_id 400
        (Printf.sprintf "parse error at line %d, col %d: %s" line col msg)
  | exception Invalid_argument msg -> json_error ~request_id 400 msg
  | () ->
      let docs = List.rev !docs and blobs = List.rev !blobs in
      Rw_lock.write t.lock (fun () ->
          let cat = Engine.catalog t.eng in
          try
            let n = Engine.ingest t.eng docs blobs in
            (match t.durable with
            | Some d ->
                ignore
                  (Durable.maybe_snapshot d ~generation:(Catalog.version cat))
            | None -> ());
            json_reply 200
              ~headers:[ ("X-Request-Id", request_id) ]
              (Printf.sprintf
                 "{\"ok\": true, \"ingested\": %d, \"docs\": [%s], \
                  \"version\": %d, \"durable\": %b}\n"
                 n
                 (String.concat ", "
                    (List.map
                       (fun (d : Doc.t) ->
                         Printf.sprintf "\"%s\""
                           (Metrics.json_escape d.Doc.doc_name))
                       docs))
                 (Catalog.version cat)
                 (t.durable <> None))
          with Invalid_argument msg ->
            (* Engine.ingest validates the whole batch before touching
               anything, so a name conflict rejects it atomically. *)
            json_error ~request_id 409 msg)

(* Operator-triggered compaction: snapshot now, under the writer lock.
   409 when the server runs without a data directory. *)
let handle_snapshot t _req =
  let request_id = fresh_request_id t in
  match t.durable with
  | None ->
      json_error ~request_id 409 "server is running without --data-dir"
  | Some d ->
      Rw_lock.write t.lock (fun () ->
          let generation = Catalog.version (Engine.catalog t.eng) in
          let path = Durable.snapshot d ~generation in
          json_reply 200
            ~headers:[ ("X-Request-Id", request_id) ]
            (Printf.sprintf
               "{\"ok\": true, \"snapshot\": \"%s\", \"generation\": %d}\n"
               (Metrics.json_escape path) generation))

let handle_explain t req =
  let text =
    match (req.Http.meth, Http.param req "q") with
    | "POST", _ when String.trim req.Http.body <> "" -> req.Http.body
    | _, Some q when String.trim q <> "" -> q
    | _ -> raise (Http.Bad_request "missing query (?q= or POST body)")
  in
  let strategy = strategy_param req in
  let optimize =
    match Http.param req "optimize" with
    | Some ("false" | "0" | "no") -> Some false
    | _ -> None
  in
  let dataguide = dataguide_param req in
  try
    Rw_lock.read t.lock (fun () ->
        text_reply 200
          (Engine.explain t.eng ?strategy ?optimize ?dataguide text ^ "\n"))
  with
  | Err.Error msg -> json_error 400 msg
  | Lexer.Syntax_error { line; col; msg } ->
      json_error 400
        (Printf.sprintf "syntax error at line %d, col %d: %s" line col msg)

(* Endpoints that dereference the engine are gated on readiness: during
   a deferred boot's WAL replay they answer 503 so a load balancer
   retries elsewhere instead of hitting the placeholder engine. *)
let engine_backed path =
  match path with
  | "/query" | "/update" | "/ingest" | "/explain" -> true
  | _ -> String.starts_with ~prefix:"/admin/" path

let recovering t (req : Http.request) =
  if engine_backed req.Http.path && not (Atomic.get t.ready) then
    Some (Listener.unavailable "recovering: store replay in progress")
  else None

(* Health and metrics stay open — probes and scrapers don't carry
   credentials — and so does /explain, which never touches document
   content. *)
let routes t =
  let route = Listener.route in
  [
    route [ "GET" ] "/metrics" (fun _ ->
        Listener.metrics_reply (Metrics.expose ()));
    route [ "GET" ] "/slow" (fun _ ->
        json_reply 200 (Slow_log.to_json () ^ "\n"));
    route [ "GET"; "POST" ] "/explain" (handle_explain t);
    route ~protected:true [ "POST" ] "/query" (handle_query t);
    route ~protected:true [ "POST" ] "/update" (handle_update t);
    route ~protected:true [ "POST" ] "/ingest" (handle_ingest t);
    route ~protected:true [ "POST" ] "/admin/snapshot" (handle_snapshot t);
  ]

(* ------------------------------------------------------------------ *)
(* Admission: a bounded queue in front of worker domains               *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let worker_loop t i =
  let rec go () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some fd ->
        Mutex.lock t.conn_m;
        t.conns.(i) <- Some fd;
        Mutex.unlock t.conn_m;
        Metrics.gauge_add m_in_flight 1;
        Listener.serve t.listener fd;
        Metrics.gauge_add m_in_flight (-1);
        (* The close happens under [conn_m], so [stop]'s force-shutdown
           can't race it. *)
        Mutex.lock t.conn_m;
        t.conns.(i) <- None;
        close_noerr fd;
        Mutex.unlock t.conn_m;
        go ()
  in
  Atomic.incr t.live_workers;
  Fun.protect ~finally:(fun () -> Atomic.decr t.live_workers) go

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start t =
  Listener.start ~gate:(recovering t) t.listener ~routes:(routes t)
    ~not_ready:(fun () ->
      if Atomic.get t.ready then None else Some "recovering")
    ~auth_token:t.cfg.auth_token ~max_body:t.cfg.max_body_bytes
    ~max_requests:t.cfg.max_requests_per_connection
    ~socket_timeout_s:t.cfg.socket_timeout_s
    ~shed_message:"server overloaded, admission queue full"
    ~admit:(Bqueue.try_push t.queue);
  (* Register the connection workers against the process domain budget:
     the scheduler spawns fewer pool workers while the server runs, and
     the engine's adaptive sizing sees the reduced
     [Pool.max_parallelism]. *)
  Pool.reserve_domains t.cfg.workers;
  t.workers <-
    List.init t.cfg.workers (fun i -> Domain.spawn (fun () -> worker_loop t i))

let stop ?grace_s t =
  let grace = Option.value ~default:t.cfg.grace_s grace_s in
  Listener.stop t.listener ~drain:(fun () ->
      (* Drain: workers keep serving queued and in-flight connections
         (keep-alive responses now say close); [close] lets them exit
         once the queue is empty. *)
      Bqueue.close t.queue;
      let deadline = Timing.now () +. grace in
      while Atomic.get t.live_workers > 0 && Timing.now () < deadline do
        Thread.delay 0.02
      done;
      if Atomic.get t.live_workers > 0 then begin
        (* Grace expired: force the stragglers' sockets shut.  Their
           reads return EOF / their writes fail, and the workers exit;
           the fds themselves are still closed by their owning worker. *)
        Mutex.lock t.conn_m;
        Array.iter
          (function
            | Some fd -> (
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
            | None -> ())
          t.conns;
        Mutex.unlock t.conn_m
      end;
      List.iter Domain.join t.workers;
      t.workers <- [];
      Pool.release_domains t.cfg.workers)
