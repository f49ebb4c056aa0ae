module Http = Standoff_server.Http
module Listener = Standoff_server.Listener
module Metrics = Standoff_obs.Metrics
module Timing = Standoff_util.Timing

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let m_restarts shard =
  Metrics.counter "standoff_router_shard_restarts_total"
    ~labels:[ ("shard", shard) ]
    ~help:"Managed shard processes restarted after a crash"

let m_proxied shard =
  Metrics.counter "standoff_router_proxied_total"
    ~labels:[ ("shard", shard) ]
    ~help:"Requests proxied to this shard"

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  host : string;
  port : int;
  max_body_bytes : int;
  auth_token : string option;
  shard_token : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    max_body_bytes = 64 * 1024 * 1024;
    auth_token = None;
    shard_token = None;
  }

(* Concurrent client connections; the acceptor sheds with 503 past it. *)
let max_conns = 128

(* Socket timeout on the client side and on a proxied shard hop. *)
let socket_timeout_s = 30.0

(* Readiness-probe cadence of each shard supervisor. *)
let probe_interval_s = 0.25

type shard_spec = {
  sp_name : string;
  sp_host : string;
  sp_port : int;
  sp_spawn : (string * string array) option;
}

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)

type health = Starting | Ready | Down

let health_label = function
  | Starting -> "starting"
  | Ready -> "ready"
  | Down -> "down"

type shard = {
  name : string;
  host : string;
  port : int;
  spawn : (string * string array) option;
  sm : Mutex.t;  (* guards [pid], [health], [restarts] *)
  mutable pid : int option;
  mutable health : health;
  mutable restarts : int;
}

type t = {
  cfg : config;
  shards : shard array;
  ring : Chash.t;
  listener : Listener.t;
  active_conns : int Atomic.t;
  mutable monitors : Thread.t list;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ?(config = default_config) specs =
  if specs = [] then invalid_arg "Router.create: no shards";
  let ring = Chash.create (List.map (fun s -> s.sp_name) specs) in
  let shards =
    Array.of_list
      (List.map
         (fun s ->
           {
             name = s.sp_name;
             host = s.sp_host;
             port = s.sp_port;
             spawn = s.sp_spawn;
             sm = Mutex.create ();
             pid = None;
             health = Starting;
             restarts = 0;
           })
         specs)
  in
  {
    cfg = config;
    shards;
    ring;
    listener =
      Listener.create ~name:"router" ~host:config.host ~port:config.port;
    active_conns = Atomic.make 0;
    monitors = [];
  }

let port t = Listener.port t.listener
let stopping t = Listener.stopping t.listener
let shard_of_doc t doc = Chash.shard t.ring doc

let shard_by_name t name =
  let found = ref None in
  Array.iter (fun sh -> if sh.name = name then found := Some sh) t.shards;
  match !found with
  | Some sh -> sh
  | None -> invalid_arg ("Router: unknown shard " ^ name)

let shard_health sh =
  Mutex.lock sh.sm;
  let h = sh.health in
  Mutex.unlock sh.sm;
  h

let ready t =
  (not (stopping t))
  && Array.for_all (fun sh -> shard_health sh = Ready) t.shards

(* ------------------------------------------------------------------ *)
(* Talking to shards                                                   *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let connect_shard ?(timeout_s = 5.0) sh =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.connect fd (Unix.ADDR_INET (resolve sh.host, sh.port));
    Some fd
  with Unix.Unix_error _ | Not_found ->
    close_noerr fd;
    None

(* The headers the router sends a shard.  Its own token wins; failing
   that, the client's Authorization header passes through, so an
   unmanaged topology can still run end-to-end token-protected. *)
let shard_headers t (req : Http.request option) =
  match t.cfg.shard_token with
  | Some tok -> [ ("Authorization", "Bearer " ^ tok) ]
  | None -> (
      match req with
      | Some req -> (
          match Http.header req "authorization" with
          | Some v -> [ ("Authorization", v) ]
          | None -> [])
      | None -> [])

(* One buffered round-trip to a shard; [None] when it cannot be
   reached or answers garbage. *)
let shard_call ?req ?(timeout_s = 5.0) t sh ~meth ~target body =
  match connect_shard ~timeout_s sh with
  | None -> None
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          try
            Http.write_request fd ~meth ~target ~headers:(shard_headers t req)
              body;
            Some (Http.read_response (Http.reader fd))
          with Http.Closed | Http.Bad_request _ | Unix.Unix_error _ -> None)

let probe_ready t sh =
  match
    shard_call ~timeout_s:2.0 t sh ~meth:"GET" ~target:"/healthz?ready=1" ""
  with
  | Some { Http.status = 200; _ } -> true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)

let spawn_shard sh =
  match sh.spawn with
  | None -> ()
  | Some (prog, argv) ->
      let pid =
        Unix.create_process prog argv Unix.stdin Unix.stdout Unix.stderr
      in
      Mutex.lock sh.sm;
      sh.pid <- Some pid;
      sh.health <- Starting;
      Mutex.unlock sh.sm

(* A sleep the stop path can cut short. *)
let rec nap t s =
  if s > 0.0 && not (stopping t) then begin
    Thread.delay (Float.min s 0.1);
    nap t (s -. 0.1)
  end

let status_label = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* One supervisor thread per shard: reap a dead managed process and
   respawn it with exponential backoff; drive [health] off the
   readiness probe either way.  A freshly respawned shard stays
   [Starting] — its requests answer 503 — until it has replayed its
   WAL and its own [/healthz?ready=1] turns 200. *)
let monitor t sh =
  let backoff = ref 0.2 in
  while not (stopping t) do
    (match sh.pid with
    | Some pid -> (
        let dead =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> None
          | _, st -> Some (status_label st)
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some "gone"
        in
        match dead with
        | None -> ()
        | Some label ->
            Mutex.lock sh.sm;
            sh.pid <- None;
            sh.health <- Down;
            sh.restarts <- sh.restarts + 1;
            Mutex.unlock sh.sm;
            Metrics.incr (m_restarts sh.name);
            Printf.eprintf
              "standoff-router: shard %s died (%s); restarting in %.1fs\n%!"
              sh.name label !backoff;
            nap t !backoff;
            backoff := Float.min 5.0 (!backoff *. 2.0);
            if not (stopping t) then spawn_shard sh)
    | None -> ());
    let up = probe_ready t sh in
    Mutex.lock sh.sm;
    (if up then sh.health <- Ready
     else
       match sh.health with
       | Ready -> sh.health <- Down
       | (Starting | Down) as h -> sh.health <- h);
    Mutex.unlock sh.sm;
    if up then backoff := 0.2;
    nap t probe_interval_s
  done

let terminate_children ~grace_s t =
  let living () =
    Array.to_list t.shards
    |> List.filter_map (fun sh ->
           Mutex.lock sh.sm;
           let p = sh.pid in
           Mutex.unlock sh.sm;
           Option.map (fun pid -> (sh, pid)) p)
  in
  let signal signum (_, pid) =
    try Unix.kill pid signum with Unix.Unix_error _ -> ()
  in
  let reap (sh, pid) =
    let gone =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    in
    if gone then begin
      Mutex.lock sh.sm;
      sh.pid <- None;
      Mutex.unlock sh.sm
    end
  in
  List.iter (signal Sys.sigterm) (living ());
  let deadline = Timing.now () +. grace_s in
  let rec drain () =
    if living () <> [] && Timing.now () < deadline then begin
      List.iter reap (living ());
      if living () <> [] then Thread.delay 0.05;
      drain ()
    end
  in
  drain ();
  (* Whatever ignored the term gets the kill, and a blocking reap —
     the process entry must not outlive the router. *)
  List.iter (signal Sys.sigkill) (living ());
  List.iter
    (fun (sh, pid) ->
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Mutex.lock sh.sm;
      sh.pid <- None;
      Mutex.unlock sh.sm)
    (living ())

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* The doc("…") / doc('…') references in a query text — the routing
   key when no [?context=] is given.  A scan, not a parse: false
   positives inside comments or string literals only ever make routing
   stricter (more references that must agree), never wrong. *)
let doc_refs text =
  let n = String.length text in
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
    | _ -> false
  in
  let is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false in
  let refs = ref [] in
  let i = ref 0 in
  while !i + 3 <= n do
    if
      String.sub text !i 3 = "doc"
      && (!i = 0 || not (is_name_char text.[!i - 1]))
      && (!i + 3 >= n || not (is_name_char text.[!i + 3]))
    then begin
      let j = ref (!i + 3) in
      while !j < n && is_ws text.[!j] do
        incr j
      done;
      if !j < n && text.[!j] = '(' then begin
        incr j;
        while !j < n && is_ws text.[!j] do
          incr j
        done;
        if !j < n && (text.[!j] = '"' || text.[!j] = '\'') then begin
          let q = text.[!j] in
          incr j;
          let start = !j in
          while !j < n && text.[!j] <> q do
            incr j
          done;
          if !j < n then begin
            refs := String.sub text start (!j - start) :: !refs;
            i := !j
          end
        end
      end
    end;
    incr i
  done;
  List.sort_uniq String.compare !refs

(* Where a query goes: the [?context=] document wins; else every
   [doc("…")] reference must land on the same shard; a reference-free
   query is only routable when there is just one shard. *)
let query_shard t (req : Http.request) =
  match Http.param req "context" with
  | Some c -> shard_by_name t (shard_of_doc t c)
  | None -> (
      match doc_refs req.Http.body with
      | [] ->
          if Array.length t.shards = 1 then t.shards.(0)
          else
            raise
              (Http.Bad_request
                 "cannot route: query references no document (use \
                  ?context= or doc(\"...\"))")
      | refs -> (
          match
            List.sort_uniq String.compare (List.map (shard_of_doc t) refs)
          with
          | [ name ] -> shard_by_name t name
          | names ->
              raise
                (Http.Bad_request
                   (Printf.sprintf
                      "cannot route: documents span shards %s — a query runs \
                       on one shard"
                      (String.concat ", " names)))))

(* ------------------------------------------------------------------ *)
(* Proxying                                                            *)

(* Forwardable response headers: the diagnostics the shard stamps on
   its replies ([X-Request-Id], [X-Standoff-Cache], …).  Hop-by-hop
   and framing headers never pass through — the router does its own
   framing. *)
let relay_headers (head : Http.response_head) =
  List.filter
    (fun (n, _) -> String.length n > 2 && String.sub n 0 2 = "x-")
    head.Http.h_headers

let head_content_type (head : Http.response_head) =
  match List.assoc_opt "content-type" head.Http.h_headers with
  | Some ct -> ct
  | None -> "text/plain; charset=utf-8"

(* Pipe one request to [sh] and its response back, re-chunked, as the
   bytes arrive — the router never buffers more than the chunk-writer
   threshold of the body.  Status and headers come from the shard's
   head, read before anything is committed to the client: a shard
   failing before its status line is a 502.  One dying mid-body aborts
   the client's chunk stream without the terminator, the same
   truncation signal the shard itself uses. *)
let proxy t sh (req : Http.request) =
  match shard_health sh with
  | Starting | Down ->
      Listener.unavailable
        (Printf.sprintf "shard %s is not ready (recovering or down)" sh.name)
  | Ready -> (
      match connect_shard ~timeout_s:socket_timeout_s sh with
      | None ->
          Listener.unavailable
            (Printf.sprintf "shard %s refused connection" sh.name)
      | Some fd -> (
          Metrics.incr (m_proxied sh.name);
          let bad_response _ =
            Listener.json_error 502
              (Printf.sprintf "shard %s: bad response" sh.name)
          in
          let r = Http.reader fd in
          match
            Http.write_request fd ~meth:req.Http.meth ~target:req.Http.target
              ~headers:(shard_headers t (Some req))
              req.Http.body;
            Http.read_response_head r
          with
          | exception ((Http.Closed | Http.Bad_request _) as e) ->
              close_noerr fd;
              bad_response e
          | exception Unix.Unix_error (e, _, _) ->
              close_noerr fd;
              Listener.json_error 502
                (Printf.sprintf "shard %s: %s" sh.name (Unix.error_message e))
          | head ->
              let sf emit =
                Fun.protect
                  ~finally:(fun () -> close_noerr fd)
                  (fun () ->
                    (* Commit the head now, as the shard already has:
                       from here on a failure can only truncate. *)
                    emit "";
                    Http.iter_response_body r head emit)
              in
              {
                Listener.status = head.Http.h_status;
                headers = ("X-Standoff-Shard", sh.name) :: relay_headers head;
                content_type = head_content_type head;
                body = Listener.Stream { sf; on_error = bad_response };
              }))

(* ------------------------------------------------------------------ *)
(* Fan-out endpoints                                                   *)

(* Split a framed batch per shard and forward the sub-batches.  Each
   shard's ingest is atomic, so per-document outcomes are the outcome
   of the owning shard's sub-batch; the answer lists every document
   with its shard and status — partial failure is visible per
   document, and the overall status is 200 only when every sub-batch
   landed. *)
let handle_ingest t (req : Http.request) =
  match Http.param req "name" with
  | Some name -> proxy t (shard_by_name t (shard_of_doc t name)) req
  | None ->
      let per_shard : (string, Buffer.t * string list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let order = ref [] in
      Http.iter_frames req.Http.body (fun name payload ->
          let sname = shard_of_doc t name in
          let buf, docs =
            match Hashtbl.find_opt per_shard sname with
            | Some e -> e
            | None ->
                let e = (Buffer.create 1024, ref []) in
                Hashtbl.add per_shard sname e;
                order := sname :: !order;
                e
          in
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" name (String.length payload));
          Buffer.add_string buf payload;
          Buffer.add_char buf '\n';
          docs := name :: !docs);
      let order = List.rev !order in
      let forward sname =
        let sh = shard_by_name t sname in
        let buf, docs = Hashtbl.find per_shard sname in
        let docs = List.rev !docs in
        try
          match shard_health sh with
          | Starting | Down -> (sname, docs, 503, "shard not ready")
          | Ready -> (
              match
                shard_call ~req ~timeout_s:socket_timeout_s t sh
                  ~meth:"POST" ~target:req.Http.target (Buffer.contents buf)
              with
              | None -> (sname, docs, 502, "shard unreachable")
              | Some resp ->
                  (sname, docs, resp.Http.status, String.trim resp.Http.r_body))
        with e -> (sname, docs, 500, Printexc.to_string e)
      in
      (* The sub-batches fan out in parallel, one thread per shard:
         a sharded ingest scales precisely because N WALs fsync at
         once, so forwarding them sequentially would forfeit the
         point.  [forward] never raises past its own handler, and
         each thread writes a distinct slot. *)
      let order_a = Array.of_list order in
      let results_a =
        Array.map (fun sname -> (sname, ([] : string list), 500, "")) order_a
      in
      let threads =
        Array.mapi
          (fun i sname ->
            Thread.create (fun () -> results_a.(i) <- forward sname) ())
          order_a
      in
      Array.iter Thread.join threads;
      let results = Array.to_list results_a in
      let all_ok = List.for_all (fun (_, _, st, _) -> st = 200) results in
      let docs_json =
        results
        |> List.concat_map (fun (sname, docs, st, _) ->
               List.map
                 (fun d ->
                   Printf.sprintf
                     "{\"name\": \"%s\", \"shard\": \"%s\", \"ok\": %b, \
                      \"status\": %d}"
                     (Metrics.json_escape d) (Metrics.json_escape sname)
                     (st = 200) st)
                 docs)
        |> String.concat ", "
      in
      let shards_json =
        results
        |> List.map (fun (sname, _, st, body) ->
               Printf.sprintf
                 "{\"shard\": \"%s\", \"status\": %d, \"response\": \"%s\"}"
                 (Metrics.json_escape sname) st (Metrics.json_escape body))
        |> String.concat ", "
      in
      Listener.json_reply
        (if all_ok then 200 else 502)
        (Printf.sprintf
           "{\"ok\": %b, \"docs\": [%s], \"shards\": [%s]}\n" all_ok docs_json
           shards_json)

(* Broadcast: every shard snapshots; 200 only when all do. *)
let handle_snapshot t (req : Http.request) =
  let results =
    Array.to_list t.shards
    |> List.map (fun sh ->
           match shard_health sh with
           | Starting | Down -> (sh.name, 503, "shard not ready")
           | Ready -> (
               match
                 shard_call ~req ~timeout_s:socket_timeout_s t sh
                   ~meth:"POST" ~target:req.Http.target req.Http.body
               with
               | None -> (sh.name, 502, "shard unreachable")
               | Some r -> (sh.name, r.Http.status, String.trim r.Http.r_body)))
  in
  let all_ok = List.for_all (fun (_, st, _) -> st = 200) results in
  let body =
    results
    |> List.map (fun (name, st, resp) ->
           Printf.sprintf
             "{\"shard\": \"%s\", \"status\": %d, \"response\": \"%s\"}"
             (Metrics.json_escape name) st (Metrics.json_escape resp))
    |> String.concat ", "
  in
  Listener.json_reply
    (if all_ok then 200 else 502)
    (Printf.sprintf "{\"ok\": %b, \"shards\": [%s]}\n" all_ok body)

(* Inject [shard="…"] into one Prometheus sample line; comment lines
   are dropped (duplicate HELP/TYPE across shards would be invalid
   exposition anyway). *)
let relabel_line ~shard line =
  if line = "" || line.[0] = '#' then None
  else
    match String.index_opt line ' ' with
    | None -> None
    | Some sp -> (
        let label = Printf.sprintf "shard=\"%s\"" shard in
        match String.index_opt line '{' with
        | Some b when b < sp ->
            Some
              (String.sub line 0 (b + 1)
              ^ label ^ ","
              ^ String.sub line (b + 1) (String.length line - b - 1))
        | _ ->
            Some
              (String.sub line 0 sp ^ "{" ^ label ^ "}"
              ^ String.sub line sp (String.length line - sp)))

let handle_metrics t _req =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Metrics.expose ());
  Array.iter
    (fun sh ->
      let up =
        match
          shard_call ~timeout_s:2.0 t sh ~meth:"GET" ~target:"/metrics" ""
        with
        | Some { Http.status = 200; r_body; _ } ->
            List.iter
              (fun line ->
                match
                  relabel_line ~shard:(Metrics.escape_label_value sh.name) line
                with
                | Some l ->
                    Buffer.add_string buf l;
                    Buffer.add_char buf '\n'
                | None -> ())
              (String.split_on_char '\n' r_body);
            1
        | Some _ | None -> 0
      in
      Buffer.add_string buf
        (Printf.sprintf "standoff_router_shard_up{shard=\"%s\"} %d\n"
           (Metrics.escape_label_value sh.name)
           up))
    t.shards;
  Listener.metrics_reply (Buffer.contents buf)

let handle_shards t _req =
  let body =
    Array.to_list t.shards
    |> List.map (fun sh ->
           Mutex.lock sh.sm;
           let health = sh.health
           and restarts = sh.restarts
           and pid = sh.pid in
           Mutex.unlock sh.sm;
           Printf.sprintf
             "{\"name\": \"%s\", \"host\": \"%s\", \"port\": %d, \
              \"managed\": %b, \"health\": \"%s\", \"restarts\": %d%s}"
             (Metrics.json_escape sh.name)
             (Metrics.json_escape sh.host)
             sh.port (sh.spawn <> None) (health_label health) restarts
             (match pid with
             | Some p -> Printf.sprintf ", \"pid\": %d" p
             | None -> ""))
    |> String.concat ", "
  in
  Listener.json_reply 200
    (Printf.sprintf "{\"vnodes\": %d, \"shards\": [%s]}\n" Chash.vnodes body)

(* The shards that keep [/healthz?ready=1] from answering 200. *)
let not_ready t () =
  match
    Array.to_list t.shards
    |> List.filter (fun sh -> shard_health sh <> Ready)
    |> List.map (fun sh -> sh.name)
  with
  | [] -> None
  | laggards -> Some ("not ready: " ^ String.concat ", " laggards)

let routes t =
  let route = Listener.route in
  [
    route [ "GET" ] "/metrics" (handle_metrics t);
    route [ "GET" ] "/shards" (handle_shards t);
    route ~protected:true [ "POST" ] "/query" (fun req ->
        proxy t (query_shard t req) req);
    route ~protected:true [ "POST" ] "/update" (fun req ->
        match Http.param req "doc" with
        | Some doc -> proxy t (shard_by_name t (shard_of_doc t doc)) req
        | None -> raise (Http.Bad_request "missing required doc parameter"));
    route ~protected:true [ "POST" ] "/ingest" (handle_ingest t);
    route ~protected:true [ "POST" ] "/admin/snapshot" (handle_snapshot t);
  ]

(* ------------------------------------------------------------------ *)
(* Admission: a thread per connection, under a cap                     *)

let admit t fd =
  Atomic.get t.active_conns < max_conns
  && begin
       Atomic.incr t.active_conns;
       ignore
         (Thread.create
            (fun fd ->
              Fun.protect
                ~finally:(fun () ->
                  close_noerr fd;
                  Atomic.decr t.active_conns)
                (fun () -> Listener.serve t.listener fd))
            fd);
       true
     end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* The router's instance of the listener: 30 s socket timeouts like its
   shard hops, and keep-alive without a per-connection bound. *)
let start t =
  Listener.start t.listener ~routes:(routes t) ~not_ready:(not_ready t)
    ~auth_token:t.cfg.auth_token ~max_body:t.cfg.max_body_bytes
    ~max_requests:max_int ~socket_timeout_s ~shed_message:"router overloaded"
    ~admit:(admit t);
  Array.iter spawn_shard t.shards;
  t.monitors <-
    Array.to_list
      (Array.map (fun sh -> Thread.create (fun () -> monitor t sh) ()) t.shards)

let stop ?(grace_s = 5.0) t =
  Listener.stop t.listener ~drain:(fun () ->
      (* Let in-flight proxying drain; connection threads exit on
         their own once their client goes away or times out. *)
      let deadline = Timing.now () +. grace_s in
      while Atomic.get t.active_conns > 0 && Timing.now () < deadline do
        Thread.delay 0.02
      done;
      List.iter Thread.join t.monitors;
      t.monitors <- [];
      terminate_children ~grace_s t)
