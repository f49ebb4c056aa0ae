(* The served run: start the real server binary, load it through
   POST /ingest, drive one workload for a measured window from at most
   two client threads, check every reply, and read the layers from
   outside by diffing GET /metrics around the window. *)

module Http = Standoff_server.Http
module Engine = Standoff_xquery.Engine
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Region = Standoff_interval.Region
module Prng = Standoff_util.Prng

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)

(* Every spawned server, so that any exit path reaps them all. *)
let children = ref []
let children_m = Mutex.create ()

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Signal [pid], give it [grace_s] to exit, then SIGKILL; returns once
   the process is reaped. *)
let reap ?(signal = Sys.sigkill) ?(grace_s = 15.0) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  let deadline = now () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        waitpid_retry pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Mutex.protect children_m (fun () ->
      children := List.filter (fun p -> p <> pid) !children)

let reap_all () = List.iter (fun pid -> reap pid) !children
let () = at_exit reap_all

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "free_port")

(* The server sees only the flags given here: STANDOFF_* variables
   from the caller's environment (cache, jobs, tracing) are dropped so
   they cannot change what is measured. *)
let spawn ~server ~port args =
  let argv =
    Array.of_list
      (server :: "--host" :: "127.0.0.1" :: "--port" :: string_of_int port
     :: "--max-body" :: string_of_int (1 lsl 28) :: args)
  in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"STANDOFF_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null_in;
        Unix.close null_out)
      (fun () ->
        Unix.create_process_env server argv env null_in null_out Unix.stderr)
  in
  Mutex.protect children_m (fun () -> children := pid :: !children);
  pid

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else go ()
      in
      go ())

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* HTTP client                                                         *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 60.0;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  with e ->
    Unix.close fd;
    raise e

(* A keep-alive connection that reopens itself after the server says
   [Connection: close] (which is not an error) or after a failure. *)
type conn = { port : int; mutable link : (Unix.file_descr * Http.reader) option }

let conn port = { port; link = None }

let hang_up c =
  Option.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) c.link;
  c.link <- None

(* One exchange, timed from the request's write to the reply's last
   byte.  [status = 0] is a transport failure; [body] then says what. *)
type reply = { status : int; body : string; t0 : float; t1 : float }

let exchange c ?(meth = "POST") ~target body =
  match
    let fd, r =
      match c.link with
      | Some l -> l
      | None ->
          let fd = connect c.port in
          let l = (fd, Http.reader fd) in
          c.link <- Some l;
          l
    in
    let t0 = now () in
    Http.write_request fd ~meth ~target body;
    let resp = Http.read_response r in
    (resp, t0, now ())
  with
  | resp, t0, t1 ->
      (match Http.response_header resp "connection" with
      | Some v when String.lowercase_ascii v = "close" -> hang_up c
      | _ -> ());
      { status = resp.Http.status; body = resp.Http.r_body; t0; t1 }
  | exception ((Unix.Unix_error _ | Http.Closed | Http.Bad_request _) as e) ->
      hang_up c;
      let t = now () in
      { status = 0; body = Printexc.to_string e; t0 = t; t1 = t }

let oneshot port ?meth ~target body =
  let c = conn port in
  Fun.protect ~finally:(fun () -> hang_up c) (fun () -> exchange c ?meth ~target body)

type server = { pid : int; port : int }

let start ~server ~args =
  let port = free_port () in
  let pid = spawn ~server ~port args in
  let deadline = now () +. 120.0 in
  let rec wait () =
    if (oneshot port ~meth:"GET" ~target:"/healthz?ready=1" "").status = 200 then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now () < deadline ->
          Thread.delay 0.005;
          wait ()
      | 0, _ ->
          reap pid;
          failwith "server not ready after 120 s"
      | _ ->
          Mutex.protect children_m (fun () ->
              children := List.filter (fun p -> p <> pid) !children);
          failwith "server exited before it was ready"
  in
  wait ();
  { pid; port }

let scrape c =
  let r = exchange c ~meth:"GET" ~target:"/metrics" "" in
  if r.status <> 200 then failwith ("GET /metrics failed: " ^ r.body);
  Prom.parse r.body

(* ------------------------------------------------------------------ *)
(* Outcome bookkeeping                                                 *)

(* Failed operations: non-200 replies, transport failures and wrong
   bytes alike.  The first few are kept to say what went wrong. *)
type tally = {
  m : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable why : string list;
}

let tally () = { m = Mutex.create (); attempted = 0; failed = 0; why = [] }

let count t ~ok what =
  Mutex.protect t.m (fun () ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if List.length t.why < 10 then t.why <- what () :: t.why
      end)

let short s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let describe text (r : reply) =
  Printf.sprintf "%s -> %d %s"
    (short (String.concat " " (String.split_on_char '\n' text)))
    r.status (short r.body)

(* Every reply to one text must carry the same bytes for the whole run
   (in the workloads where no update can change it). *)
type seen = { sm : Mutex.t; digests : (string, Digest.t) Hashtbl.t }

let seen () = { sm = Mutex.create (); digests = Hashtbl.create 4096 }

let consistent s text body =
  let d = Digest.string body in
  Mutex.protect s.sm (fun () ->
      match Hashtbl.find_opt s.digests text with
      | Some d' -> Digest.equal d d'
      | None ->
          Hashtbl.add s.digests text d;
          true)

(* ------------------------------------------------------------------ *)
(* The window                                                          *)

type read = { text : string; r0 : float; r1 : float }

type update = {
  u : int * int64 * int64;  (** pre, start, end *)
  due : float;
  sent : float;
  acked : float;
  ok : bool;
}

(* Phases: 0 warm-up, 1 measuring, 2 stopping.  Only the leader (the
   first reader) moves them, and it takes both scrapes on its own
   connection: with two busy workers a third connection would wait in
   the admission queue until a keep-alive connection ended. *)
type control = {
  phase : int Atomic.t;
  mutable w0 : float;
  mutable w1 : float;
  mutable before : Prom.t;
  mutable after : Prom.t;
  mutable rss_mb : float;
  mutable fatal : string option;
}

let reader_loop ~ctl ~tally ~srv ~leader ~warmup_end ~seconds ~next ~check acc =
  let c = conn srv.port in
  Fun.protect
    ~finally:(fun () -> hang_up c)
    (fun () ->
      while Atomic.get ctl.phase < 2 do
        let phase = Atomic.get ctl.phase in
        if leader && phase = 0 && now () >= warmup_end then begin
          ctl.before <- scrape c;
          ctl.w0 <- now ();
          Atomic.set ctl.phase 1
        end
        else if leader && phase = 1 && now () >= ctl.w0 +. seconds then begin
          ctl.w1 <- now ();
          ctl.after <- scrape c;
          ctl.rss_mb <- peak_rss_mb srv.pid;
          Atomic.set ctl.phase 2
        end
        else begin
          let text = next () in
          let r = exchange c ~target:"/query" text in
          let ok = r.status = 200 && check text r.body in
          count tally ~ok (fun () -> describe text r);
          acc := { text; r0 = r.t0; r1 = r.t1 } :: !acc
        end
      done)

(* Open loop: update k is due at [t_start + k / rate] whether or not
   the previous one has been answered; its latency runs from when it
   was due, so a stall also charges the updates queued behind it. *)
let writer_loop ~ctl ~tally ~srv ~t_start ~rate ~next acc =
  let c = conn srv.port in
  Fun.protect
    ~finally:(fun () -> hang_up c)
    (fun () ->
      let k = ref 0 in
      while Atomic.get ctl.phase < 2 do
        let due = t_start +. (float_of_int !k /. rate) in
        incr k;
        let wait = due -. now () in
        if wait > 0.0 then Thread.delay wait;
        if Atomic.get ctl.phase < 2 then begin
          let u = next () in
          let sent = now () in
          let target = Workload.update_target u in
          let r = exchange c ~target "" in
          let ok = r.status = 200 in
          count tally ~ok (fun () -> describe target r);
          acc := { u; due; sent; acked = r.t1; ok } :: !acc
        end
      done)

(* Run [f] on a thread; an exception stops the whole window instead of
   leaving the other threads waiting on a phase that never comes. *)
let spawn_thread ctl f =
  Thread.create
    (fun () ->
      try f ()
      with e ->
        if ctl.fatal = None then ctl.fatal <- Some (Printexc.to_string e);
        Atomic.set ctl.phase 2)
    ()

(* ------------------------------------------------------------------ *)
(* Set-up and the measured window                                      *)

(* What the window produced.  [reads] and [updates] include the
   warm-up; the window is [ctl.w0, ctl.w1]. *)
type window = {
  reads : read list;
  updates : update list;  (** in send order *)
  ctl : control;
}

(* Spawn -> ready -> /ingest acknowledged; returns the server and how
   long that took. *)
let cold_start ~server ~args (input : Input.t) =
  let t0 = now () in
  let srv = start ~server ~args in
  let r =
    oneshot srv.port
      ~target:("/ingest?convert=standoff&name=" ^ Input.doc_name)
      input.Input.inline
  in
  if r.status <> 200 then begin
    reap srv.pid;
    failwith (Printf.sprintf "ingest answered %d: %s" r.status (short r.body))
  end;
  (srv, now () -. t0)

(* Warm-up, then [seconds] measured on a loaded server, which is left
   running for the caller's oracles. *)
let serve ~srv ~tally ~check ~seed ~seconds (w : Workload.t) (input : Input.t) =
  let streams = Workload.streams ~seed (w.readers + 1) in
  let ctl =
    {
      phase = Atomic.make 0;
      w0 = 0.0;
      w1 = 0.0;
      before = [];
      after = [];
      rss_mb = 0.0;
      fatal = None;
    }
  in
  let t_start = now () in
  let warmup_end = t_start +. w.warmup_s in
  let read_accs = List.init w.readers (fun _ -> ref []) in
  let updates = ref [] in
  let readers =
    List.mapi
      (fun i acc ->
        let next = Workload.reader w input.Input.counts streams.(i) in
        spawn_thread ctl (fun () ->
            reader_loop ~ctl ~tally ~srv ~leader:(i = 0) ~warmup_end ~seconds
              ~next ~check acc))
      read_accs
  in
  let writer =
    Option.map
      (fun rate ->
        let next = Workload.writer (Input.increases input) streams.(w.readers) in
        spawn_thread ctl (fun () ->
            writer_loop ~ctl ~tally ~srv ~t_start ~rate ~next updates))
      w.writer_rate
  in
  List.iter Thread.join readers;
  Option.iter Thread.join writer;
  Option.iter
    (fun m ->
      reap srv.pid;
      failwith m)
    ctl.fatal;
  {
    reads = List.concat_map (fun acc -> !acc) read_accs;
    updates = List.rev !updates;
    ctl;
  }

(* ------------------------------------------------------------------ *)
(* The served run                                                      *)

type result = {
  e2e : (string * float * string) list;  (** name, value, unit *)
  layers : (string * float * string) list;
  attempted : int;
  failed : int;
  why : string list;
}

(* Probe every text once on a fresh connection; each reply must equal
   the reference bytes. *)
let probe ~tally port texts reference =
  let c = conn port in
  Fun.protect
    ~finally:(fun () -> hang_up c)
    (fun () ->
      List.iter
        (fun text ->
          let r = exchange c ~target:"/query" text in
          let ok = r.status = 200 && r.body = reference text in
          count tally ~ok (fun () -> "probe: " ^ describe text r))
        texts)

let memo f =
  let tbl = Hashtbl.create 256 in
  fun x ->
    match Hashtbl.find_opt tbl x with
    | Some y -> y
    | None ->
        let y = f x in
        Hashtbl.add tbl x y;
        y

(* [setup_s] is the median of this many cold set-ups, since single ones
   spread by about a quarter; the window runs on the last of them. *)
let setups = 3

let run ~server ~work_dir ~seed ~seconds (w : Workload.t) (input : Input.t) =
  let tally = tally () in
  let oracle ~ok what = count tally ~ok (fun () -> "oracle: " ^ what) in
  let reference =
    memo
      (Input.reference_reply
         (Input.reference_engine ~dataguide:(w.kind <> Workload.Scan_large) input))
  in
  let seen = seen () in
  let check =
    match w.kind with
    | Workload.Scan_large ->
        (* Q6 counts every item, so it must equal the generator's count. *)
        let q6 = reference (List.assoc "Q6" Workload.scan_texts) in
        let items = input.Input.counts.Standoff_xmark.Gen.items in
        oracle
          ~ok:(q6 = Printf.sprintf "%d\n" items)
          (Printf.sprintf "Q6 = %S, generator made %d items" q6 items);
        List.iter (fun (_, t) -> ignore (reference t)) Workload.scan_texts;
        fun text body -> body = reference text
    | Workload.Serve_hot -> consistent seen
    | Workload.Update_mix ->
        fun text body -> Workload.sees_updates text || consistent seen text body
  in
  let data_dir i =
    if w.kind = Workload.Update_mix then
      Some (Filename.concat work_dir (Printf.sprintf "data-%d" i))
    else None
  in
  let args i =
    w.server_args
    @ match data_dir i with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let cold =
    List.init (setups - 1) (fun i ->
        let srv, setup_s = cold_start ~server ~args:(args i) input in
        reap ~signal:Sys.sigterm srv.pid;
        Option.iter rm_rf (data_dir i);
        setup_s)
  in
  let last = setups - 1 in
  let srv, setup_s = cold_start ~server ~args:(args last) input in
  let win = serve ~srv ~tally ~check ~seed ~seconds w input in
  (* The oracles that need the traffic stopped.  Each branch ends with
     every server it ran reaped. *)
  let texts_sent =
    List.sort_uniq compare (List.map (fun (r : read) -> r.text) win.reads)
  in
  let recover_s =
    match w.kind with
    | Workload.Scan_large ->
        reap ~signal:Sys.sigterm srv.pid;
        None
    | Workload.Serve_hot ->
        (* The 20 hottest texts plus a seeded sample of the rest, >= 200
           distinct in all, against the reference and against the bytes
           served during the run. *)
        let hottest = List.init (min 20 input.Input.counts.persons) Workload.person in
        let rest =
          Array.of_list (List.filter (fun t -> not (List.mem t hottest)) texts_sent)
        in
        Prng.shuffle (Prng.create (Int64.of_int seed)) rest;
        let sample =
          hottest @ Array.to_list (Array.sub rest 0 (min (Array.length rest) 180))
        in
        oracle
          ~ok:(List.length sample >= min 200 (List.length texts_sent))
          (Printf.sprintf "only %d texts sampled" (List.length sample));
        List.iter
          (fun text ->
            match Hashtbl.find_opt seen.digests text with
            | Some d ->
                oracle
                  ~ok:(Digest.equal d (Digest.string (reference text)))
                  ("served bytes differ from the reference: " ^ short text)
            | None -> ())
          sample;
        probe ~tally srv.port sample reference;
        reap ~signal:Sys.sigterm srv.pid;
        None
    | Workload.Update_mix ->
        (* Every acknowledged update, in order, applied to a fresh
           reference; then every text the reader sent must agree, before
           and after a kill -9 and WAL replay. *)
        let eng = Input.reference_engine ~dataguide:true input in
        let doc =
          let coll = Engine.collection eng in
          match Collection.doc_id_of_name coll Input.doc_name with
          | Some id -> Collection.doc coll id
          | None -> failwith "reference lost its document"
        in
        List.iter
          (fun u ->
            if u.ok then
              let pre, s, e = u.u in
              Engine.set_region eng Config.default doc ~pre (Region.make s e))
          win.updates;
        let reference = memo (Input.reference_reply eng) in
        probe ~tally srv.port texts_sent reference;
        reap srv.pid;
        let t0 = now () in
        let again = start ~server ~args:(args last) in
        let recover_s = now () -. t0 in
        Fun.protect
          ~finally:(fun () -> reap ~signal:Sys.sigterm again.pid)
          (fun () -> probe ~tally again.port texts_sent reference);
        Some recover_s
  in
  Option.iter rm_rf (data_dir last);
  let lat =
    Stats.sorted_of_list
      (List.filter_map
         (fun (r : read) ->
           if r.r0 >= win.ctl.w0 && r.r1 <= win.ctl.w1 then Some ((r.r1 -. r.r0) *. 1e3)
           else None)
         win.reads)
  in
  if Array.length lat = 0 then failwith "no read completed inside the window";
  let nf = float_of_int (Array.length lat) in
  let client_mean = Stats.mean (Array.to_list lat) in
  let scrapes = (win.ctl.before, win.ctl.after) in
  let d ?where name = Prom.delta ?where scrapes name in
  let ms name = Prom.window_mean scrapes name *. 1e3 in
  let per_q x = x /. nf and per_kq x = 1e3 *. x /. nf in
  let hit_rate cache =
    let where = [ ("cache", cache) ] in
    let hits = d ~where "standoff_cache_hits_total" in
    Stats.ratio hits (hits +. d ~where "standoff_cache_misses_total")
  in
  let route = ms "standoff_server_request_seconds" in
  let engine = ms "standoff_query_seconds" in
  let writes =
    match recover_s with
    | None -> []
    | Some recover_s ->
        (* Open-loop samples count by when they were due. *)
        let updates =
          List.filter (fun u -> u.due >= win.ctl.w0 && u.due < win.ctl.w1) win.updates
        in
        if updates = [] then failwith "the writer sent no update due inside the window";
        let since_due f =
          Stats.sorted_of_list (List.map (fun u -> (f u -. u.due) *. 1e3) updates)
        in
        let ulat = since_due (fun u -> u.acked) and late = since_due (fun u -> u.sent) in
        [
          ("update_p50_ms", Stats.percentile ulat 50.0, "ms");
          ("update_p90_ms", Stats.percentile ulat 90.0, "ms");
          ("update_n", float_of_int (Array.length ulat), "count");
          ("writer_lateness_p99_ms", Stats.percentile late 99.0, "ms");
          ("recover_s", recover_s, "s");
        ]
  in
  let e2e =
    [
      ("query_qps", nf /. (win.ctl.w1 -. win.ctl.w0), "req/s");
      ("query_p50_ms", Stats.percentile lat 50.0, "ms");
      ("query_p99_ms", Stats.percentile lat 99.0, "ms");
      ("setup_s", Stats.median (setup_s :: cold), "s");
      ("peak_rss_mb", win.ctl.rss_mb, "MB");
      ("query_n", nf, "count");
    ]
    @ writes
  in
  let layers =
    [
      ("server.route_ms", route, "ms");
      ("server.io_wait_ms", client_mean -. route, "ms");
      ("server.lock_prepare_ms", route -. engine, "ms");
      ("server.shed", d "standoff_server_shed_total", "count");
      ("xquery.engine_ms", engine, "ms");
      ("cache.result_hit_rate", hit_rate "result", "fraction");
      ("cache.plan_hit_rate", hit_rate "plan", "fraction");
      ( "cache.result_evictions_per_kq",
        per_kq (d ~where:[ ("cache", "result") ] "standoff_cache_evictions_total"),
        "1/kq" );
      ( "core.join_index_rows_per_q",
        per_q (d "standoff_join_index_rows_total"),
        "rows/q" );
      ( "core.match_rows_per_index_row",
        Stats.ratio
          (d "standoff_merge_match_rows_total")
          (d "standoff_join_index_rows_total"),
        "fraction" );
      ("core.index_builds_per_kq", per_kq (d "standoff_index_builds_total"), "1/kq");
      ( "core.index_rows_built_per_q",
        per_q (d "standoff_index_rows_built_total"),
        "rows/q" );
      ( "store.dataguide_builds_per_kq",
        per_kq (d "standoff_dataguide_builds_total"),
        "1/kq" );
      ("store.dataguide_build_ms", ms "standoff_dataguide_build_seconds", "ms");
      ( "store.dataguide_probe_hit_rate",
        Stats.ratio
          (d "standoff_dataguide_probe_hits_total")
          (d "standoff_dataguide_probes_total"),
        "fraction" );
      ( "store.wal_bytes_per_update",
        Stats.ratio
          (d "standoff_wal_appended_bytes_total")
          (d "standoff_wal_appended_records_total"),
        "B/u" );
      ("store.fsync_ms", ms "standoff_wal_fsync_seconds", "ms");
      ("pool.tasks_per_q", per_q (d "standoff_pool_tasks_total"), "tasks/q");
      ("pool.steals_per_q", per_q (d "standoff_pool_steals_total"), "steals/q");
      ("pool.queue_wait_ms", ms "standoff_pool_queue_wait_seconds", "ms");
    ]
  in
  {
    e2e;
    layers;
    attempted = tally.attempted;
    failed = tally.failed;
    why = List.rev tally.why;
  }
