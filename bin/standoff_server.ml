(* The network query service binary: load documents (from disk, a
   saved database, or a generated XMark instance), wrap them in an
   Engine, and serve queries over HTTP until SIGTERM/SIGINT asks for a
   graceful shutdown (stop accepting, drain in-flight, exit 0).

     standoff-server --xmark 0.01 --port 8080
     curl -sS -X POST --data-binary @q.xq 'localhost:8080/query?strategy=loop-lifted'
     curl -sS localhost:8080/metrics *)

module Collection = Standoff_store.Collection
module Engine = Standoff_xquery.Engine
module Server = Standoff_server.Server
module Flags = Standoff_flags.Flags
module Setup = Standoff_xmark.Setup

open Cmdliner

let xmark_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "xmark" ] ~docv:"SCALE"
        ~doc:
          "Generate and load an XMark instance at this scale factor \
           (stand-off transformed, BLOB registered) instead of, or in \
           addition to, documents from disk.  Handy for demos and smoke \
           tests.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value & opt int 8080
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Port to listen on (0 picks an ephemeral port).")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains serving connections.  0 (the default) derives \
           the count from the machine: half the process domain budget, \
           at least 1.")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission-queue capacity: pending connections beyond the \
           workers; more are shed with 503 + Retry-After.")

let max_body_arg =
  Arg.(
    value
    & opt int (1024 * 1024)
    & info [ "max-body" ] ~docv:"BYTES" ~doc:"Request body cap (413 past it).")

let keep_alive_arg =
  Arg.(
    value & opt int 1000
    & info [ "max-requests-per-connection" ] ~docv:"N"
        ~doc:"Keep-alive bound: close the connection after N requests.")

let timeout_ms_arg =
  Arg.(
    value
    & opt (some float) (Some 30_000.0)
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline in milliseconds (clients override \
           with ?timeout-ms=, clamped to --max-timeout-ms).")

let max_timeout_ms_arg =
  Arg.(
    value & opt float 300_000.0
    & info [ "max-timeout-ms" ] ~docv:"MS"
        ~doc:"Upper clamp for client-requested deadlines.")

let socket_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "socket-timeout" ] ~docv:"SECONDS"
        ~doc:"Receive/send timeout on connections.")

let grace_arg =
  Arg.(
    value & opt float 10.0
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:"Drain budget for graceful shutdown.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Durable data directory (created if missing).  Boot recovers \
           the newest snapshot plus the WAL suffix; updates are logged \
           before they are acknowledged; shutdown writes a compacting \
           snapshot.  Without it the store is purely in-memory.")

let fsync_arg =
  Arg.(
    value
    & opt Flags.fsync_conv Standoff_store.Wal.Always
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "WAL fsync policy: always (acknowledged implies durable), \
           batch[:N] (fsync every N appends; bounded loss window), or \
           never (leave it to the OS).  Only meaningful with --data-dir.")

let auth_token_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth-token" ]
        ~env:(Cmd.Env.info "STANDOFF_AUTH_TOKEN")
        ~docv:"TOKEN"
        ~doc:
          "Require $(b,Authorization: Bearer) TOKEN on /query, /update, \
           /ingest and /admin/* (401 otherwise; constant-time compare).  \
           /healthz and /metrics stay open.  Defaults to \
           \\$(b,STANDOFF_AUTH_TOKEN), else no authentication.")

let snapshot_every_arg =
  Arg.(
    value & opt int 1000
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Write a compacting snapshot (and reset the WAL) every N \
           updates; 0 disables periodic snapshots (POST /admin/snapshot \
           and clean shutdown still compact).  Only meaningful with \
           --data-dir.")

let serve docs blobs db xmark host port workers queue max_body keep_alive
    timeout_ms max_timeout_ms socket_timeout grace options auth_token data_dir
    fsync snapshot_every =
  try
    let config =
      {
        Server.host;
        port;
        workers;
        queue_capacity = queue;
        max_body_bytes = max_body;
        max_requests_per_connection = keep_alive;
        default_timeout_ms = timeout_ms;
        max_timeout_ms;
        socket_timeout_s = socket_timeout;
        grace_s = grace;
        auth_token;
      }
    in
    (* Deferred boot: bind and serve before recovery, so the process is
       observable (alive, not ready) through a long WAL replay —
       /healthz answers 200 and engine-backed endpoints answer 503
       until the engine is installed below. *)
    let server = Server.create_deferred ~config () in
    (* Handlers only flag the request; the actual stop runs on the
       main thread (a signal handler must not join domains). *)
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Server.start server;
    let seed () =
      let coll = Flags.load_collection ?db docs blobs in
      (match xmark with
      | Some scale ->
          let setup = Setup.build ~scale ~with_standard:false ~jobs:1 () in
          (* Re-register the generated documents and BLOB in our own
             collection so --doc/--db loads can coexist with --xmark. *)
          Collection.fold_docs
            (fun () _ d -> ignore (Collection.add coll d))
            () setup.Setup.coll;
          Collection.fold_blobs
            (fun () b -> Collection.add_blob coll b)
            () setup.Setup.coll;
          Printf.printf "loaded XMark scale %g as %S (%s)\n%!" scale
            setup.Setup.standoff_doc
            (Setup.size_label setup.Setup.serialized_size)
      | None -> ());
      coll
    in
    let durable, coll =
      match data_dir with
      | None -> (None, seed ())
      | Some dir ->
          let d, recovery =
            Standoff.Durable.open_dir ~policy:fsync
              ~snapshot_every:(max 0 snapshot_every) ~seed dir
          in
          let snap_label =
            match recovery.Standoff.Durable.rec_snapshot with
            | Some (lsn, _) -> Printf.sprintf "snapshot lsn=%d" lsn
            | None -> "no snapshot"
          in
          Printf.printf
            "standoff-server: recovered %s (fsync=%s): %s, replayed %d WAL \
             record(s)%s\n\
             %!"
            dir
            (Standoff_store.Wal.fsync_policy_to_string fsync)
            snap_label recovery.Standoff.Durable.rec_replayed
            (match recovery.Standoff.Durable.rec_torn with
            | Some reason -> Printf.sprintf " (torn tail dropped: %s)" reason
            | None -> "");
          if
            recovery.Standoff.Durable.rec_snapshot <> None
            && (docs <> [] || db <> None || xmark <> None)
          then
            Printf.printf
              "standoff-server: note: --doc/--db/--xmark ignored — %s \
               already holds a snapshot\n\
               %!"
              dir;
          (Some d, Standoff.Durable.collection d)
    in
    let engine = Engine.create ~options ?durable coll in
    Flags.report_slow_queries options;
    let module Pool = Standoff_util.Pool in
    let jobs_label =
      match options.Engine.Options.jobs with
      | 0 -> Printf.sprintf "auto(<=%d)" (Pool.max_parallelism ())
      | n -> string_of_int n
    in
    Printf.printf
      "standoff-server: domain budget %d -> %d connection worker(s) + \
       engine jobs %s\n\
       standoff-server listening on %s:%d (queue=%d cache=%s auth=%s) — %d \
       document(s) loaded\n\
       endpoints: POST /query, POST /update, POST /ingest, \
       POST /admin/snapshot, GET /explain, GET /metrics, GET /slow, \
       GET /healthz\n\
       %!"
      (Pool.domain_budget ()) (Server.workers server) jobs_label host
      (Server.port server) queue
      (Engine.Options.cache_to_string options.Engine.Options.cache)
      (if auth_token = None then "off" else "bearer")
      (Collection.doc_count coll);
    (* Ready only after the banner, so a readiness probe that succeeds
       can rely on it being in the log. *)
    Server.install_engine server engine;
    while not (Atomic.get stop_requested) do
      Thread.delay 0.1
    done;
    Printf.printf "standoff-server: shutting down (grace %gs)...\n%!" grace;
    Server.stop server;
    (match durable with
    | Some d when Standoff.Durable.dirty d ->
        Printf.printf "standoff-server: writing shutdown snapshot\n%!"
    | _ -> ());
    (* Writes that snapshot, closes the WAL and parks the pool. *)
    Engine.shutdown engine;
    Printf.printf "standoff-server: drained, bye\n%!";
    exit 0
  with
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 1
  | Standoff_xml.Parser.Parse_error { line; col; msg } ->
      Printf.eprintf "XML parse error at line %d, col %d: %s\n" line col msg;
      exit 1
  | Standoff_store.Persist.Corrupt msg ->
      Printf.eprintf "corrupt database file: %s\n" msg;
      exit 1
  | Standoff_store.Wal.Corrupt msg ->
      Printf.eprintf "corrupt write-ahead log: %s\n" msg;
      exit 1
  | Standoff.Durable.Recovery_error msg ->
      Printf.eprintf "recovery failed: %s\n" msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "i/o error: %s\n" msg;
      exit 1

let () =
  (* Node-key tables leave most of a query's garbage in large arrays
     that the runtime allocates in the major heap directly, not in
     per-row boxes that die young.  At the default space overhead
     (120) the served heap then peaks higher for the same traffic; 80
     keeps it at or below the boxed tables' peak (EXPERIMENTS.md
     "Node-column sequence tables"). *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let info =
    Cmd.info "standoff-server"
      ~doc:
        "Serve StandOff XQuery over HTTP: admission control, per-request \
         deadlines, keep-alive, graceful shutdown"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const serve $ Flags.docs_arg $ Flags.blobs_arg $ Flags.db_arg
            $ xmark_arg $ host_arg $ port_arg $ workers_arg $ queue_arg
            $ max_body_arg $ keep_alive_arg $ timeout_ms_arg
            $ max_timeout_ms_arg $ socket_timeout_arg $ grace_arg
            $ Flags.engine_options $ auth_token_arg $ data_dir_arg
            $ fsync_arg $ snapshot_every_arg)))
