module Metrics = Standoff_obs.Metrics
module Timing = Standoff_util.Timing

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : body;
}

and body = Full of string | Stream of stream

and stream = {
  sf : (string -> unit) -> unit;
  on_error : exn -> reply;
}

let text_reply ?(headers = []) status body =
  {
    status;
    headers;
    content_type = "text/plain; charset=utf-8";
    body = Full body;
  }

let json_reply ?(headers = []) status body =
  { status; headers; content_type = "application/json"; body = Full body }

let json_error ?request_id ?(extra = "") status msg =
  let rid =
    match request_id with
    | Some id -> Printf.sprintf ", \"request_id\": \"%s\"" id
    | None -> ""
  in
  json_reply status
    (Printf.sprintf "{\"error\": \"%s\"%s%s}\n" (Metrics.json_escape msg) rid
       extra)

let metrics_reply body =
  {
    status = 200;
    headers = [];
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = Full body;
  }

(* Every 503 asks the client to come back after this many seconds. *)
let retry_after_s = 1
let retry_after = ("Retry-After", string_of_int retry_after_s)
let unavailable msg = { (json_error 503 msg) with headers = [ retry_after ] }

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)

type route = {
  methods : string list;
  path : string;
  protected : bool;
  handler : Http.request -> reply;
}

let route ?(protected = false) methods path handler =
  { methods; path; protected; handler }

(* A protected route guards its own path and, below the root, the rest
   of its directory: "/admin/snapshot" covers "/admin/anything". *)
let guards route path =
  route.protected
  && (route.path = path
     ||
     match String.rindex_opt route.path '/' with
     | Some i when i > 0 ->
         String.starts_with ~prefix:(String.sub route.path 0 (i + 1)) path
     | _ -> false)

let unauthorized =
  {
    (json_error 401 "missing or invalid bearer token") with
    headers = [ ("WWW-Authenticate", "Bearer") ];
  }

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type app = {
  routes : route list;
  gate : Http.request -> reply option;
  auth_token : string option;
  max_body : int;
  max_requests : int;
  socket_timeout_s : float;
  shed_message : string;
  admit : Unix.file_descr -> bool;
}

type state = Created | Running | Stopping | Stopped

type t = {
  name : string;
  listen_fd : Unix.file_descr;
  (* Self-pipe waking the acceptor out of [select]: closing a listening
     socket does not reliably interrupt a thread already blocked in
     [accept], so the acceptor multiplexes over both. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  mutable state : state;
  state_m : Mutex.t;
  mutable acceptor : Thread.t option;
  (* Set once by [start], before the acceptor can admit a connection. *)
  mutable app : app option;
  m_requests : string;  (* the [requests_total] name, labelled per code *)
  m_connections : Metrics.counter;
  m_shed : Metrics.counter;
  m_request_seconds : Metrics.histogram;
  m_streamed : Metrics.counter;
  m_stream_truncated : Metrics.counter;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ~name ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128
   with e ->
     close_noerr fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let metric suffix = Printf.sprintf "standoff_%s_%s" name suffix in
  {
    name;
    listen_fd = fd;
    wake_r;
    wake_w;
    bound_port;
    stopping = Atomic.make false;
    state = Created;
    state_m = Mutex.create ();
    acceptor = None;
    app = None;
    m_requests = metric "requests_total";
    m_connections =
      Metrics.counter (metric "connections_total")
        ~help:"Connections accepted (shed ones included)";
    m_shed =
      Metrics.counter (metric "shed_total")
        ~help:"Connections shed with 503 because the admission queue was full";
    m_request_seconds =
      Metrics.histogram (metric "request_seconds")
        ~buckets:Metrics.duration_buckets
        ~help:"Wall-clock request latency (parse to response written)";
    m_streamed =
      Metrics.counter (metric "streamed_total")
        ~help:"Responses delivered via chunked streaming";
    m_stream_truncated =
      Metrics.counter (metric "stream_truncated_total")
        ~help:
          "Streamed responses aborted mid-body (no terminating chunk was sent)";
  }

let port t = t.bound_port
let stopping t = Atomic.get t.stopping

let running t =
  Mutex.protect t.state_m (fun () ->
      match t.state with
      | Running | Stopping -> true
      | Created | Stopped -> false)

(* Registration is memoized by (name, labels), so calling this per
   response costs one lock + hashtable hit, not a new metric. *)
let count_response t code =
  Metrics.incr
    (Metrics.counter t.m_requests
       ~labels:[ ("code", string_of_int code) ]
       ~help:"Responses by status code")

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

(* [?ready=] takes the engine's switch spellings, as every other
   boolean parameter does; anything else is a 400. *)
let wants_ready req =
  match Http.param req "ready" with
  | None -> false
  | Some v -> (
      try Standoff_xquery.Engine.Options.bool_of_string v
      with Invalid_argument _ ->
        raise (Http.Bad_request (Printf.sprintf "malformed ready=%S" v)))

(* Liveness (bare GET /healthz) answers 200 for as long as the process
   serves HTTP at all; readiness (?ready=1) is the signal a router or
   load balancer keys traffic on. *)
let healthz t not_ready req =
  if not (wants_ready req) then text_reply 200 "ok\n"
  else
    let why = if stopping t then Some "draining" else not_ready () in
    match why with
    | None -> text_reply 200 "ready\n"
    | Some why -> text_reply 503 ~headers:[ retry_after ] (why ^ "\n")

let authorized app (req : Http.request) =
  match app.auth_token with
  | Some token when List.exists (fun r -> guards r req.Http.path) app.routes
    -> (
      match Http.bearer_token req.Http.headers with
      | Some presented -> Http.const_time_eq token presented
      | None -> false)
  | Some _ | None -> true

let dispatch app (req : Http.request) =
  if not (authorized app req) then unauthorized
  else
    match app.gate req with
    | Some reply -> reply
    | None -> (
        match List.filter (fun r -> r.path = req.Http.path) app.routes with
        | [] -> json_error 404 ("no such endpoint: " ^ req.Http.path)
        | routes -> (
            match
              List.find_opt (fun r -> List.mem req.Http.meth r.methods) routes
            with
            | Some r -> r.handler req
            | None ->
                {
                  (json_error 405 ("method not allowed: " ^ req.Http.meth)) with
                  headers =
                    [
                      ( "Allow",
                        String.concat ", "
                          (List.concat_map (fun r -> r.methods) routes) );
                    ];
                }))

(* ------------------------------------------------------------------ *)
(* Connection serving                                                  *)

(* Write a reply (see [reply] in the interface for the streaming
   contract); returns whether the connection can be kept alive. *)
let rec send_reply t fd ~keep_alive reply =
  match reply.body with
  | Full body ->
      count_response t reply.status;
      Http.write_response fd ~status:reply.status ~headers:reply.headers
        ~content_type:reply.content_type ~keep_alive body;
      keep_alive
  | Stream { sf; on_error } -> (
      let writer = ref None in
      let force_writer () =
        match !writer with
        | Some w -> w
        | None ->
            Http.write_response_head fd ~status:reply.status
              ~headers:reply.headers ~content_type:reply.content_type
              ~keep_alive ();
            let w = Http.chunk_writer fd in
            writer := Some w;
            w
      in
      let emit s = Http.chunk (force_writer ()) s in
      match sf emit with
      | () ->
          (* An empty stream still owes the client a (zero-length)
             chunked body. *)
          Http.chunk_end (force_writer ());
          count_response t reply.status;
          Metrics.incr t.m_streamed;
          keep_alive
      | exception exn -> (
          match !writer with
          | None -> send_reply t fd ~keep_alive (on_error exn)
          | Some _ ->
              count_response t reply.status;
              Metrics.incr t.m_streamed;
              Metrics.incr t.m_stream_truncated;
              (match exn with
              | Unix.Unix_error _ | Http.Closed ->
                  (* A peer went away mid-stream; nothing to tell. *)
                  ()
              | exn ->
                  Printf.eprintf "standoff-%s: stream aborted mid-body: %s\n%!"
                    t.name (Printexc.to_string exn));
              false))

(* A request that could not be read is answered, then the connection
   closes: its framing is no longer trustworthy. *)
let refuse t fd reply =
  try ignore (send_reply t fd ~keep_alive:false reply)
  with Unix.Unix_error _ -> ()

let serve_requests t app fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO app.socket_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO app.socket_timeout_s;
     (* Streamed and proxied replies go out as head + chunks in
        separate small writes; TCP_NODELAY keeps Nagle from stalling
        each on the peer's delayed ACK. *)
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let reader = Http.reader fd in
  let served = ref 0 in
  let continue = ref true in
  while !continue do
    continue := false;
    match Http.read_request ~max_body:app.max_body reader with
    | exception Http.Closed -> ()
    | exception
        Unix.Unix_error
          ((EAGAIN | EWOULDBLOCK | ETIMEDOUT | ECONNRESET | EPIPE | EBADF), _, _)
      ->
        (* Receive timeout or a peer/force-closed socket: just drop the
           connection; there is no request to answer. *)
        ()
    | exception Http.Bad_request msg -> refuse t fd (json_error 400 msg)
    | exception Http.Not_implemented msg ->
        (* Chunked request bodies: a diagnosable refusal instead of a
           dropped connection. *)
        refuse t fd (json_error 501 msg)
    | exception Http.Payload_too_large cap ->
        refuse t fd
          (json_error 413 (Printf.sprintf "request body exceeds %d bytes" cap))
    | req -> (
        incr served;
        let keep_alive =
          Http.wants_keep_alive req
          && !served < app.max_requests
          && not (stopping t)
        in
        let t0 = Timing.now () in
        let reply =
          try dispatch app req with
          | Http.Bad_request msg -> json_error 400 msg
          | exn ->
              (* A handler bug must kill the request, not the worker. *)
              Printf.eprintf "standoff-%s: internal error on %s %s: %s\n%!"
                t.name req.Http.meth req.Http.target (Printexc.to_string exn);
              json_error 500 (Printf.sprintf "internal %s error" t.name)
        in
        Metrics.observe t.m_request_seconds (Timing.now () -. t0);
        match send_reply t fd ~keep_alive reply with
        | ka -> continue := ka
        | exception Unix.Unix_error _ -> ())
  done

let serve t fd =
  try serve_requests t (Option.get t.app) fd
  with exn ->
    Printf.eprintf "standoff-%s: connection: %s\n%!" t.name
      (Printexc.to_string exn)

(* The 503 the acceptor sends without admitting the connection.  A
   short send timeout keeps a slow-reading client from stalling the
   accept loop. *)
let shed t app fd =
  Metrics.incr t.m_shed;
  (try
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
     ignore (send_reply t fd ~keep_alive:false (unavailable app.shed_message))
   with Unix.Unix_error _ -> ());
  close_noerr fd

let rec accept_loop t app =
  if stopping t then ()
  else
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> accept_loop t app
    | exception Unix.Unix_error (EBADF, _, _) -> ()
    | ready, _, _ ->
        if List.mem t.wake_r ready then () (* [stop] woke us: done *)
        else begin
          (match Unix.accept ~cloexec:true t.listen_fd with
          | exception
              Unix.Unix_error
                ((EBADF | EINVAL | ECONNABORTED | EINTR | EAGAIN), _, _) ->
              ()
          | fd, _ ->
              Metrics.incr t.m_connections;
              if stopping t then close_noerr fd
              else if not (app.admit fd) then shed t app fd);
          accept_loop t app
        end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(gate = fun _ -> None) t ~routes ~not_ready ~auth_token ~max_body
    ~max_requests ~socket_timeout_s ~shed_message ~admit =
  Mutex.protect t.state_m (fun () ->
      match t.state with
      | Created -> t.state <- Running
      | Running | Stopping | Stopped ->
          invalid_arg
            (Printf.sprintf "standoff-%s: start: already started" t.name));
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let routes = route [ "GET" ] "/healthz" (healthz t not_ready) :: routes in
  let app =
    {
      routes;
      gate;
      auth_token;
      max_body;
      max_requests;
      socket_timeout_s;
      shed_message;
      admit;
    }
  in
  t.app <- Some app;
  t.acceptor <- Some (Thread.create (accept_loop t) app)

let stop t ~drain =
  let prev =
    Mutex.protect t.state_m (fun () ->
        let p = t.state in
        (match p with
        | Created -> t.state <- Stopped
        | Running -> t.state <- Stopping
        | Stopping | Stopped -> ());
        p)
  in
  let close_sockets () =
    close_noerr t.listen_fd;
    close_noerr t.wake_r;
    close_noerr t.wake_w
  in
  match prev with
  | Stopping | Stopped -> ()
  | Created -> close_sockets ()
  | Running ->
      Atomic.set t.stopping true;
      (* A byte down the self-pipe pops the acceptor out of [select];
         only then is the listening socket closed. *)
      (try ignore (Unix.write_substring t.wake_w "x" 0 1)
       with Unix.Unix_error _ -> ());
      Option.iter Thread.join t.acceptor;
      close_sockets ();
      drain ();
      Mutex.protect t.state_m (fun () -> t.state <- Stopped)
