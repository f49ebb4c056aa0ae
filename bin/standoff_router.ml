(* The shard-router binary: spawn (or attach to) N standoff-server
   shard processes, consistent-hash document names across them, and
   serve the routed API on one front port until SIGTERM/SIGINT.

     standoff-router --shards 4 --data-root /var/lib/standoff --port 8080
     standoff-router --shard 10.0.0.1:8080 --shard 10.0.0.2:8080

   Managed shards get their own data directory under --data-root and
   are supervised: health-checked, restarted with backoff when they
   die, terminated on shutdown. *)

module Router = Standoff_router.Router
open Cmdliner

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind the front port on.")

let port_arg =
  Arg.(
    value & opt int 8080
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Front port to listen on (0 picks an ephemeral port).")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Spawn and supervise N standoff-server shard processes (named \
           shard-0 … shard-N-1, each with its own data directory under \
           --data-root).")

let external_arg =
  Arg.(
    value & opt_all string []
    & info [ "shard" ] ~docv:"[NAME=]HOST:PORT"
        ~doc:
          "Attach an externally managed shard (repeatable).  NAME is the \
           placement identity and must stay stable across restarts; it \
           defaults to HOST:PORT.")

let data_root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-root" ] ~docv:"DIR"
        ~doc:
          "Root for managed shards' data directories (DIR/shard-0, …).  \
           Without it managed shards run in-memory.")

let shard_exe_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-exe" ] ~docv:"PATH"
        ~doc:
          "The standoff-server executable to spawn for managed shards.  \
           Defaults to standoff_server.exe next to this binary.")

let shard_workers_arg =
  Arg.(
    value & opt int 0
    & info [ "shard-workers" ] ~docv:"N"
        ~doc:"Worker domains per managed shard (0 = the shard's auto sizing).")

let fsync_arg =
  Arg.(
    value
    & opt Standoff_flags.Flags.fsync_conv Standoff_store.Wal.Always
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "WAL fsync policy passed to managed shards (with --data-root): \
           always | batch[:N] | never, as standoff-server's --fsync.")

let snapshot_every_arg =
  Arg.(
    value & opt int 1000
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"Snapshot cadence passed to managed shards (with --data-root).")

let auth_token_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth-token" ]
        ~env:(Cmd.Env.info "STANDOFF_AUTH_TOKEN")
        ~docv:"TOKEN"
        ~doc:
          "Require $(b,Authorization: Bearer) TOKEN on /query, /update, \
           /ingest and /admin/* (401 otherwise).  Managed shards are \
           spawned with the same token unless --shard-token overrides it.")

let shard_token_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-token" ] ~docv:"TOKEN"
        ~doc:
          "Bearer token the router presents to its shards (and spawns \
           managed shards with).  Defaults to --auth-token.")

let max_body_arg =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "max-body" ] ~docv:"BYTES" ~doc:"Request body cap (413 past it).")

let grace_arg =
  Arg.(
    value & opt float 5.0
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:"Drain/terminate budget for graceful shutdown.")

(* An ephemeral port for a managed shard: bind 0, read, release.  The
   tiny race against another process grabbing it before the shard
   binds is acceptable for the local topologies this spawns. *)
let free_port host =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "free_port")

let parse_external spec =
  let name, addr =
    match String.index_opt spec '=' with
    | Some i ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (spec, spec)
  in
  match String.rindex_opt addr ':' with
  | None ->
      Printf.eprintf "error: --shard %S: want [NAME=]HOST:PORT\n" spec;
      exit 124
  | Some i -> (
      let host = String.sub addr 0 i in
      let port_s = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt port_s with
      | Some port when port > 0 && host <> "" ->
          { Router.sp_name = name; sp_host = host; sp_port = port;
            sp_spawn = None }
      | _ ->
          Printf.eprintf "error: --shard %S: bad HOST:PORT\n" spec;
          exit 124)

let default_shard_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "standoff_server.exe"

(* The shard only creates the leaf of its --data-dir; the root (and
   any missing ancestors) are the router's to provide. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run host port shards externals data_root shard_exe shard_workers fsync
    snapshot_every auth_token shard_token max_body grace =
  try
    if shards <= 0 && externals = [] then begin
      Printf.eprintf
        "error: no shards (give --shards N and/or --shard HOST:PORT)\n";
      exit 124
    end;
    let shard_token =
      match shard_token with Some _ as t -> t | None -> auth_token
    in
    let exe =
      match shard_exe with Some e -> e | None -> default_shard_exe ()
    in
    if shards > 0 && not (Sys.file_exists exe) then begin
      Printf.eprintf "error: shard executable %s not found\n" exe;
      exit 124
    end;
    let managed =
      List.init shards (fun i ->
          let name = Printf.sprintf "shard-%d" i in
          let sport = free_port "127.0.0.1" in
          let argv =
            ref
              [
                exe; "--host"; "127.0.0.1"; "--port"; string_of_int sport;
                "--workers"; string_of_int shard_workers;
              ]
          in
          (match data_root with
          | Some root ->
              mkdir_p (Filename.concat root name);
              argv :=
                !argv
                @ [
                    "--data-dir"; Filename.concat root name;
                    "--fsync"; Standoff_store.Wal.fsync_policy_to_string fsync;
                    "--snapshot-every"; string_of_int snapshot_every;
                  ]
          | None -> ());
          (match shard_token with
          | Some tok -> argv := !argv @ [ "--auth-token"; tok ]
          | None -> ());
          {
            Router.sp_name = name;
            sp_host = "127.0.0.1";
            sp_port = sport;
            sp_spawn = Some (exe, Array.of_list !argv);
          })
    in
    let specs = managed @ List.map parse_external externals in
    let config =
      {
        Router.host;
        port;
        max_body_bytes = max_body;
        auth_token;
        shard_token;
      }
    in
    let router = Router.create ~config specs in
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Router.start router;
    Printf.printf
      "standoff-router listening on %s:%d — %d shard(s): %s (auth=%s)\n\
       endpoints: POST /query, POST /update, POST /ingest, \
       POST /admin/snapshot, GET /metrics, GET /shards, GET /healthz\n\
       %!"
      host (Router.port router) (List.length specs)
      (String.concat ", "
         (List.map
            (fun s ->
              Printf.sprintf "%s@%s:%d%s" s.Router.sp_name s.Router.sp_host
                s.Router.sp_port
                (if s.Router.sp_spawn = None then "" else " (managed)"))
            specs))
      (if auth_token = None then "off" else "bearer");
    while not (Atomic.get stop_requested) do
      Thread.delay 0.1
    done;
    Printf.printf "standoff-router: shutting down (grace %gs)...\n%!" grace;
    Router.stop ~grace_s:grace router;
    Printf.printf "standoff-router: bye\n%!";
    exit 0
  with
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 1
  | Invalid_argument msg | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let () =
  let info =
    Cmd.info "standoff-router"
      ~doc:
        "Scale StandOff XQuery out across shard processes: consistent \
         hashing, supervised shard lifecycles, streamed proxying"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ host_arg $ port_arg $ shards_arg $ external_arg
            $ data_root_arg $ shard_exe_arg $ shard_workers_arg $ fsync_arg
            $ snapshot_every_arg $ auth_token_arg $ shard_token_arg
            $ max_body_arg $ grace_arg)))
