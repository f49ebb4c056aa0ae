module Timing = Standoff_util.Timing
module Pool = Standoff_util.Pool
module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Item = Standoff_relalg.Item
module Table = Standoff_relalg.Table
module Config = Standoff.Config
module Catalog = Standoff.Catalog
module Durable = Standoff.Durable
module Wal = Standoff_store.Wal
module Lru = Standoff_cache.Lru
module Metrics = Standoff_obs.Metrics
module Trace = Standoff_obs.Trace
module Slow_log = Standoff_obs.Slow_log

let m_queries_total =
  Metrics.counter "standoff_queries_total" ~help:"Queries executed"

let m_query_errors_total =
  Metrics.counter "standoff_query_errors_total"
    ~help:"Queries that raised (including deadline kills)"

let m_query_seconds =
  Metrics.histogram "standoff_query_seconds"
    ~buckets:Metrics.duration_buckets ~help:"Wall-clock query latency"

(* ------------------------------------------------------------------ *)
(* Options: every engine setting, one parser each                     *)

type cache_mode = Cache_off | Cache_plan | Cache_result

module Options = struct
  type t = {
    strategy : Config.strategy option;
    jobs : int;
    cache : cache_mode;
    dataguide : bool;
    slow_ms : float option;
    cache_bytes : int;
  }

  let default =
    {
      strategy = None;
      jobs = 0;
      cache = Cache_off;
      dataguide = true;
      slow_ms = None;
      cache_bytes = 64 * 1024 * 1024;
    }

  (* An optional '-' then ASCII digits and nothing else, the strictness
     the HTTP layer applies to its integer parameters: [int_of_string]
     alone would also take "0x10", "1_0" or "+5". *)
  let decimal of_string what s =
    let digits =
      if String.starts_with ~prefix:"-" s then
        String.sub s 1 (String.length s - 1)
      else s
    in
    let n =
      if
        digits <> ""
        && String.for_all (function '0' .. '9' -> true | _ -> false) digits
      then of_string s
      else None
    in
    match n with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "malformed %s %S" what s)

  let jobs_of_string s = max 0 (decimal int_of_string_opt "jobs" s)

  let bool_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "off" | "0" | "false" | "no" -> false
    | "on" | "1" | "true" | "yes" -> true
    | _ ->
        invalid_arg
          (Printf.sprintf "malformed switch %S (expected on | off)" s)

  let cache_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "none" -> Cache_off
    | "plan" -> Cache_plan
    | "result" -> Cache_result
    | _ -> (
        match bool_of_string s with
        | true -> Cache_result
        | false -> Cache_off
        | exception Invalid_argument _ ->
            invalid_arg
              (Printf.sprintf
                 "unknown cache mode %S (expected off | plan | result)" s))

  let cache_to_string = function
    | Cache_off -> "off"
    | Cache_plan -> "plan"
    | Cache_result -> "result"

  let slow_ms_of_string s =
    match float_of_string_opt (String.trim s) with
    | Some ms when Float.is_finite ms && ms >= 0.0 -> ms
    | _ -> invalid_arg (Printf.sprintf "malformed slow-query threshold %S" s)

  let cache_bytes_of_string s =
    match decimal int_of_string_opt "cache size (MiB)" s with
    | mb when mb >= 1 -> mb * 1024 * 1024
    | _ -> invalid_arg (Printf.sprintf "cache size %S must be at least 1 MiB" s)

  let override ?strategy ?jobs ?slow_ms ?cache ?dataguide o =
    let or_else v d = match v with Some _ -> v | None -> d in
    {
      o with
      strategy = or_else strategy o.strategy;
      jobs = max 0 (Option.value jobs ~default:o.jobs);
      slow_ms = or_else slow_ms o.slow_ms;
      cache = Option.value cache ~default:o.cache;
      dataguide = Option.value dataguide ~default:o.dataguide;
    }

  (* An empty value counts as unset: [Unix.putenv] cannot remove a
     variable, so resetting one means setting it to "". *)
  let of_env () =
    let read var parse set o =
      match Sys.getenv_opt var with
      | None | Some "" -> o
      | Some s -> (
          match parse s with
          | v -> set o v
          | exception Invalid_argument m ->
              invalid_arg (Printf.sprintf "%s: %s" var m))
    in
    default
    |> read "STANDOFF_JOBS" jobs_of_string (fun o jobs -> { o with jobs })
    |> read "STANDOFF_CACHE" cache_of_string (fun o cache -> { o with cache })
    |> read "STANDOFF_CACHE_MB" cache_bytes_of_string (fun o cache_bytes ->
           { o with cache_bytes })
    |> read "STANDOFF_DATAGUIDE" bool_of_string (fun o dataguide ->
           { o with dataguide })
    |> read "STANDOFF_SLOW_MS" slow_ms_of_string (fun o ms ->
           { o with slow_ms = Some ms })
end

(* ------------------------------------------------------------------ *)
(* A writer-preferring readers-writer lock.  Queries, node-constructing
   ones included, take the shared side; updates, ingests and snapshots
   the exclusive one.
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
(* Prepared queries: parse -> lower -> optimize, once.                *)

type prepared = {
  p_text : string;  (** original query text, for the slow-query log *)
  p_prolog : Ast.prolog_decl list;
  p_plan : Plan.t;
  p_functions : (string, Plan.function_def) Hashtbl.t;
  p_globals : (string * Plan.t) list;
  p_config : Config.t;
  p_strategy : Config.strategy option;
  p_cost : int;
      (** estimated rows touched ({!Optimize.estimate_cost}), taken at
          prepare time; steers the adaptive jobs choice only, so a
          stale estimate under a cached plan can never change results *)
  p_fingerprint : string;
      (** digest of the rendered physical plan + config + strategy;
          the result cache keys on it *)
}

let prepared_plan p = p.p_plan

(* Conservative: a call to a constructing user function from a
   non-constructing body still reports [true] (function bodies are
   checked whether called or not). *)
let prepared_constructs p =
  Plan.constructs p.p_plan
  || List.exists (fun (_, g) -> Plan.constructs g) p.p_globals
  || Hashtbl.fold
       (fun _ fn acc -> acc || Plan.constructs fn.Plan.fn_body)
       p.p_functions false

(* What one result-cache entry stores: everything [run_prepared]
   returns except the trace, which is per-run. *)
type cached_result = {
  cr_items : Item.t list;
  cr_serialized : string;
  cr_config : Config.t;
}

type t = {
  coll : Collection.t;
  cat : Catalog.t;
  options : Options.t;
  plan_cache : (string, prepared) Lru.t;
      (* keyed on (query text, effective strategy, optimize flag,
         dataguide flag);
         deliberately not generation-stamped — collection statistics
         only steer strategy choice, and all strategies are
         result-equivalent *)
  result_cache : (string, cached_result) Lru.t;
      (* keyed on (plan fingerprint, context, document count),
         stamped with the catalogue version at lookup time *)
  durable : Durable.t option;
      (* the store every successful update is logged to; [None] keeps
         the engine purely in memory *)
  lock : Rw_lock.t;
      (* shared by queries, exclusive for updates, ingests and
         snapshots: an update patches region-index arrays that a
         running sweep reads *)
}

let create ?options ?strategy ?jobs ?slow_ms ?cache ?dataguide ?durable coll =
  (match durable with
  | Some d when Durable.collection d != coll ->
      invalid_arg "Engine.create: the collection is not the durable store's"
  | _ -> ());
  let options =
    Options.override ?strategy ?jobs ?slow_ms ?cache ?dataguide
      (match options with Some o -> o | None -> Options.of_env ())
  in
  {
    coll;
    cat = Catalog.create ();
    options;
    plan_cache =
      Lru.create ~name:"plan" ~max_entries:128
        ~weight:(fun p -> String.length p.p_text + 512)
        ();
    result_cache =
      Lru.create ~name:"result" ~max_entries:1024
        ~max_bytes:options.Options.cache_bytes
        ~weight:(fun r ->
          String.length r.cr_serialized + (64 * List.length r.cr_items) + 128)
        ();
    durable;
    lock = Rw_lock.create ();
  }

let collection t = t.coll
let catalog t = t.cat
let options t = t.options
let durable t = t.durable <> None
let plan_cache_stats t = Lru.stats t.plan_cache
let result_cache_stats t = Lru.stats t.result_cache

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* Apply, log, compact — one exclusive section.  [apply] validates
   against the live collection first (raising [Invalid_argument]
   exactly as [Update.*] does) and returns the WAL record of what it
   changed, if anything; only a successful mutation is logged, so a WAL
   replay can never meet a record the store once rejected.  Under the
   Always fsync policy the record is on disk when this returns, so an
   acknowledged update survives any crash.  Periodic compaction rides
   along while the writer lock, which [Durable.snapshot] needs, is
   held. *)
let write t apply =
  Rw_lock.write t.lock (fun () ->
      let result, op = apply () in
      (match (t.durable, op) with
      | Some d, Some op ->
          ignore (Durable.log d op);
          ignore (Durable.maybe_snapshot d ~generation:(Catalog.version t.cat))
      | _ -> ());
      result)

let set_region t config doc ~pre region =
  write t (fun () ->
      Standoff.Update.set_region t.cat config doc ~pre region;
      ( (),
        Some
          (Wal.Set_region
             {
               doc = doc.Doc.doc_name;
               start_attr = config.Config.start_name;
               end_attr = config.Config.end_name;
               ptype = config.Config.position_type;
               pre;
               start_pos = Standoff_interval.Region.start_pos region;
               end_pos = Standoff_interval.Region.end_pos region;
             }) ))

let shift_annotations t config doc ~from ~by =
  write t (fun () ->
      let moved = Standoff.Update.shift_annotations t.cat config doc ~from ~by in
      ( moved,
        if moved = 0 then None
        else
          Some
            (Wal.Shift
               {
                 doc = doc.Doc.doc_name;
                 start_attr = config.Config.start_name;
                 end_attr = config.Config.end_name;
                 ptype = config.Config.position_type;
                 from;
                 by;
               }) ))

let ingest t ?(config = Standoff.Config.default) docs blobs =
  write t (fun () ->
      (* Two passes, like the in-place updates: validate the whole batch
         against the live collection before mutating anything, so a
         conflicting name in the middle of a batch rejects the batch
         whole — no partial ingest ever reaches the store or the WAL. *)
      let coll = t.coll in
      let all_new what exists names =
        let seen = Hashtbl.create 16 in
        List.iter
          (fun name ->
            if Hashtbl.mem seen name then
              invalid_arg
                (Printf.sprintf "Engine.ingest: duplicate %s %S in batch" what
                   name);
            Hashtbl.add seen name ();
            if exists name then
              invalid_arg
                (Printf.sprintf "Engine.ingest: %s %S already exists" what name))
          names
      in
      all_new "document"
        (fun name -> Collection.doc_id_of_name coll name <> None)
        (List.map (fun (d : Doc.t) -> d.Doc.doc_name) docs);
      all_new "blob" (fun name -> Collection.blob coll name <> None)
        (List.map fst blobs);
      List.iter (fun d -> ignore (Collection.add coll d)) docs;
      List.iter
        (fun (name, contents) ->
          Collection.add_blob coll
            (Standoff_store.Blob.of_string ~name contents))
        blobs;
      (* Warm the per-document structures while we still hold the batch:
         the region index (through the catalogue, so later queries share
         it) and the DataGuide, each built exactly once per document per
         batch instead of on first query. *)
      List.iter
        (fun (d : Doc.t) ->
          ignore (Catalog.annots t.cat config d);
          ignore
            (Standoff_store.Dataguide.get
               ~generation:(Catalog.generation t.cat d.Doc.doc_name)
               d))
        docs;
      (* One catalogue-wide version bump and one WAL record for the whole
         batch: ingesting N documents costs one invalidation, not N. *)
      Catalog.bump t.cat;
      ( List.length docs,
        Some
          (Wal.Ingest
             {
               docs =
                 List.map
                   (fun (d : Doc.t) ->
                     (d.Doc.doc_name, Standoff_store.Persist.doc_to_string d))
                   docs;
               blobs;
             }) ))

let snapshot t =
  Option.map
    (fun d ->
      Rw_lock.write t.lock (fun () ->
          Durable.snapshot d ~generation:(Catalog.version t.cat)))
    t.durable

(* STANDOFF_TRACE=1 forces a trace collector onto every run that was
   not handed one explicitly (CI uses this to catch
   instrumentation-only crashes). *)
let trace_forced () =
  match Sys.getenv_opt "STANDOFF_TRACE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* The shutdown snapshot (written only when updates were logged since
   the last one) makes the next boot replay nothing. *)
let shutdown t =
  Option.iter
    (fun d ->
      Rw_lock.write t.lock (fun () ->
          Durable.close ~generation:(Catalog.version t.cat) d))
    t.durable;
  Pool.park ()

(* All engines share the one process-wide scheduler; a handle is just
   a parallelism cap.  [None] when sequential, so jobs=1 never even
   consults it. *)
let pool_for jobs = if jobs <= 1 then None else Some (Pool.create ~jobs)

(* The adaptive jobs choice: threshold the prepared plan's cost
   estimate, then clamp to the parallelism the domain budget has left
   (server workers reserve their share).  The numbers are plan-cost
   cut-offs (estimated rows touched, {!Optimize.estimate_cost}): below
   4096 a run stays sequential, and each fourfold rise in cost doubles
   the jobs, up to 8. *)
let adaptive_jobs cost =
  let wanted =
    if cost < 4_096 then 1
    else if cost < 16_384 then 2
    else if cost < 65_536 then 4
    else 8
  in
  max 1 (min wanted (Pool.max_parallelism ()))

let effective_jobs t prepared =
  match t.options.Options.jobs with
  | 0 -> adaptive_jobs prepared.p_cost
  | jobs -> jobs

type result = {
  items : Item.t list;
  serialized : string;
  config : Config.t;
  trace : Trace.span option;
      (* the closed root span of the run, when tracing was on *)
}

(* Prolog processing: fold the standoff-* options into a configuration,
   register user functions, and collect global variables.  A malformed
   option value is a static error, like any other in the query text. *)
let process_prolog (q : Ast.query) =
  let static f = try f () with Invalid_argument msg -> Err.raisef "%s" msg in
  let functions = Hashtbl.create 8 in
  let config = ref Config.default in
  let strategy_override = ref None in
  let globals = ref [] in
  List.iter
    (function
      | Ast.Decl_option { name; value } -> (
          (* Accept both "standoff-start" and prefixed "so:standoff-start". *)
          let name =
            match String.index_opt name ':' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          let set name =
            config := static (fun () -> Config.set_option !config ~name ~value)
          in
          match name with
          | "standoff-type" -> set "type"
          | "standoff-start" -> set "start"
          | "standoff-end" -> set "end"
          | "standoff-region" -> set "region"
          | "standoff-strategy" ->
              strategy_override :=
                Some (static (fun () -> Config.strategy_of_string value))
          | _ -> () (* foreign options are ignored, as the spec requires *))
      | Ast.Decl_namespace _ -> ()
      | Ast.Decl_function fn ->
          if Hashtbl.mem functions fn.Ast.fn_name then
            Err.raisef "function %s declared twice" fn.Ast.fn_name;
          Hashtbl.add functions fn.Ast.fn_name fn
      | Ast.Decl_variable { var; value } -> globals := (var, value) :: !globals)
    q.Ast.prolog;
  (functions, !config, !strategy_override, List.rev !globals)

(* Run [f] under a fresh child span of [trace], when tracing. *)
let phase_span trace name f =
  match trace with
  | None -> f ()
  | Some tr ->
      let sp = Trace.enter tr name in
      Fun.protect ~finally:(fun () -> Trace.exit tr sp) f

let strategy_label = function
  | Some s -> Config.strategy_to_string s
  | None -> "auto"

(* ------------------------------------------------------------------ *)
(* Plan rendering (EXPLAIN), also the basis of the plan fingerprint   *)

let render_prepared ?annotate prepared =
  let decls = List.map Pp_ast.decl_to_string prepared.p_prolog in
  let fn_plans =
    (* Deterministic order for display. *)
    Hashtbl.fold (fun _ fn acc -> fn :: acc) prepared.p_functions []
    |> List.sort (fun a b -> compare a.Plan.fn_name b.Plan.fn_name)
    |> List.map (fun fn ->
           Printf.sprintf "function %s(%s):\n%s" fn.Plan.fn_name
             (String.concat ", "
                (List.map (fun p -> "$" ^ p) fn.Plan.fn_params))
             (Plan.render ?annotate fn.Plan.fn_body))
  in
  let global_plans =
    List.map
      (fun (var, p) ->
        Printf.sprintf "variable $%s:\n%s" var (Plan.render ?annotate p))
      prepared.p_globals
  in
  String.concat "\n"
    (decls @ fn_plans @ global_plans
    @ [ Plan.render ?annotate prepared.p_plan ])

(* Two prepared queries with the same fingerprint evaluate to the same
   result on the same document set: the rendered physical plan pins
   every operator (including candidate pushdown), the configuration
   pins the annotation vocabulary, and the strategy label separates
   pinned runs from auto runs so per-strategy observability (metrics,
   traces) stays truthful even when results would coincide. *)
let fingerprint_of prepared =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            render_prepared prepared;
            Format.asprintf "%a" Config.pp prepared.p_config;
            strategy_label prepared.p_strategy;
          ]))

(* ------------------------------------------------------------------ *)
(* Prepare, behind the plan cache                                     *)

let prepare_uncached t ?strategy ~optimize ~dataguide ?trace query_text =
  let q = phase_span trace "parse" (fun () -> Parse.parse_query query_text) in
  let ast_functions, config, strategy_override, ast_globals =
    process_prolog q
  in
  (* A name declared as a user function shadows the builtin function
     form of the StandOff operators, so lowering must not turn calls to
     it into join nodes. *)
  let is_udf name = Hashtbl.mem ast_functions name in
  (* The path-collapse rewrite treats [doc]/[root] calls as document
     sources; a user function of either name shadows the builtin, so
     collapse must stand down for the whole query. *)
  let dataguide =
    dataguide && not (is_udf "doc") && not (is_udf "root")
  in
  let resolved =
    match (strategy_override, strategy) with
    | Some s, _ -> Some s
    | None, Some s -> Some s
    | None, None -> t.options.Options.strategy
  in
  (* Statistics steer the optimizer's pushdown rule and the adaptive
     jobs estimate; both are heuristics, so stale numbers can only
     mis-steer performance, never results. *)
  let stats = Optimize.collection_stats ~dataguide t.coll t.cat config in
  let rewrite =
    if optimize then fun plan ->
      Optimize.optimize ?pin_strategy:resolved ~stats ~dataguide plan
    else Fun.id
  in
  let lower e = rewrite (Plan.lower ~is_udf e) in
  phase_span trace "optimize" (fun () ->
      let functions = Hashtbl.create (Hashtbl.length ast_functions) in
      Hashtbl.iter
        (fun name fn ->
          Hashtbl.add functions name
            {
              Plan.fn_name = fn.Ast.fn_name;
              fn_params = fn.Ast.fn_params;
              fn_body = lower fn.Ast.fn_body;
            })
        ast_functions;
      let body = lower q.Ast.body in
      let globals =
        List.map (fun (var, value) -> (var, lower value)) ast_globals
      in
      let cost =
        List.fold_left
          (fun acc (_, g) -> acc + Optimize.estimate_cost ~stats g)
          (Optimize.estimate_cost ~stats body)
          globals
      in
      let p =
        {
          p_text = query_text;
          p_prolog = q.Ast.prolog;
          p_plan = body;
          p_functions = functions;
          p_globals = globals;
          p_config = config;
          p_strategy = resolved;
          p_cost = cost;
          p_fingerprint = "";
        }
      in
      { p with p_fingerprint = fingerprint_of p })

(* Every public entry point below takes the lock once and calls these
   unlocked internals: a nested shared acquisition queued behind a
   waiting writer would deadlock. *)
let prepare_unlocked t ?strategy ?(optimize = true) ?dataguide ?trace
    query_text =
  let dataguide =
    Option.value dataguide ~default:t.options.Options.dataguide
  in
  if t.options.Options.cache = Cache_off then
    prepare_uncached t ?strategy ~optimize ~dataguide ?trace query_text
  else begin
    (* The key is everything outside the text that steers lowering: the
       effective strategy (the [?strategy] argument, else the engine
       pin — a prolog override is inside the text), the optimize flag,
       and the dataguide flag (it gates the path-collapse rewrite, so
       the physical plan differs).  Not generation-stamped on purpose:
       stale collection statistics can only mis-steer strategy choice,
       never change the result, and replanning on every update would
       defeat the cache. *)
    let effective =
      match strategy with
      | Some _ -> strategy
      | None -> t.options.Options.strategy
    in
    let key =
      String.concat "\x00"
        [
          query_text;
          strategy_label effective;
          (if optimize then "opt" else "raw");
          (if dataguide then "dg" else "nodg");
        ]
    in
    match Lru.find t.plan_cache key with
    | Some p -> p
    | None ->
        let p =
          prepare_uncached t ?strategy ~optimize ~dataguide ?trace query_text
        in
        Lru.add t.plan_cache key p;
        p
  end

(* Record a finished run in the engine metrics and, past the
   threshold, the slow-query log.  Runs on success and on error alike
   (the finally of [run_prepared]). *)
let account t prepared trace ~jobs ~seconds ~failed =
  Metrics.incr m_queries_total;
  if failed then Metrics.incr m_query_errors_total;
  Metrics.observe m_query_seconds seconds;
  match t.options.Options.slow_ms with
  | Some ms when seconds *. 1e3 >= ms ->
      Slow_log.record
        {
          Slow_log.e_at = Timing.now ();
          e_query = prepared.p_text;
          e_seconds = seconds;
          e_strategy = strategy_label prepared.p_strategy;
          e_jobs = jobs;
          e_summary =
            (match trace with Some tr -> Trace.summary tr | None -> "");
        }
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Result cache plumbing                                              *)

(* The document-set component of a result key is the document count:
   the collection is append-only ([Collection.add] only pushes; nothing
   removes or replaces a document) and this cache belongs to one engine
   over one collection, so the count names the document set.  Taken
   under the collection lock, O(1) per run, hits included. *)
let result_key t prepared ~context_doc =
  String.concat "\x00"
    [
      prepared.p_fingerprint;
      Option.value ~default:"" context_doc;
      string_of_int (Collection.doc_count t.coll);
    ]

let set_root_attrs trace prepared ~jobs ~cache =
  match trace with
  | Some tr ->
      let root = Trace.root tr in
      Trace.set_str root "strategy" (strategy_label prepared.p_strategy);
      Trace.set_int root "jobs" jobs;
      Trace.set_str root "cache" cache
  | None -> ()

(* Feed a string already materialized (a cached result) to a streaming
   sink in bounded slices, so the sink's own coalescing buffer never
   has to swallow it whole. *)
let emit_sliced emit s =
  let n = String.length s in
  let step = 65536 in
  let i = ref 0 in
  while !i < n do
    emit (String.sub s !i (min step (n - !i)));
    i := !i + step
  done

let prepare t ?strategy ?optimize ?dataguide ?trace query_text =
  Rw_lock.read t.lock (fun () ->
      prepare_unlocked t ?strategy ?optimize ?dataguide ?trace query_text)

let run_prepared_unlocked t ?(deadline = Timing.no_deadline) ?context_doc
    ?(use_cache = true) ?jobs ?emit ?trace prepared =
  (* [jobs] overrides the engine-wide parallelism for this one run (the
     HTTP server maps a per-request [?jobs=] knob onto it); the engine
     field is left alone so concurrent runs are unaffected.  With no
     override and the engine in adaptive mode ([jobs = 0]) the run is
     sized from the plan's cost estimate. *)
  let jobs = match jobs with Some n -> max 1 n | None -> effective_jobs t prepared in
  let trace =
    match trace with
    | Some _ -> trace
    | None -> if trace_forced () then Some (Trace.create ()) else None
  in
  let cache_on = use_cache && t.options.Options.cache = Cache_result in
  (* The key and the generation stamp are both taken before evaluation:
     an update racing the run can only make the stored entry stale
     (its stamp is older than the post-update version), never let a
     pre-update result outlive the update. *)
  let key = if cache_on then Some (result_key t prepared ~context_doc) else None in
  let generation = if cache_on then Catalog.version t.cat else 0 in
  let hit =
    match key with
    | Some k -> Lru.find t.result_cache ~generation k
    | None -> None
  in
  match hit with
  | Some cr ->
      (* Byte-identical replay: the serialized form (and the items) are
         exactly what the original run produced.  Still a query as far
         as accounting is concerned. *)
      let t0 = Timing.now () in
      set_root_attrs trace prepared ~jobs ~cache:"hit";
      Option.iter (fun tr -> ignore (Trace.finish tr)) trace;
      account t prepared trace ~jobs ~seconds:(Timing.now () -. t0)
        ~failed:false;
      (* A streaming caller gets the cached bytes through its sink, in
         slices, and an empty [serialized] — same contract as a
         streamed evaluation. *)
      (match emit with
      | Some emit -> emit_sliced emit cr.cr_serialized
      | None -> ());
      {
        items = cr.cr_items;
        serialized = (if emit = None then cr.cr_serialized else "");
        config = cr.cr_config;
        trace = Option.map Trace.root trace;
      }
  | None ->
      let context =
        Option.map
          (fun name ->
            match Collection.doc_id_of_name t.coll name with
            | Some doc_id -> Item.Node { Collection.doc_id; pre = 0 }
            | None -> Err.raisef "context document %S not found" name)
          context_doc
      in
      (* Constructors build into this run's arena; the view, and every
         document in it, is dropped with the run. *)
      let coll = Collection.run_view t.coll in
      let t0 = Timing.now () in
      let failed = ref true in
      Fun.protect
        ~finally:(fun () ->
          (* Closing every span that is still open is what keeps a trace
             killed by [Deadline_exceeded] (or any evaluation error)
             well-formed. *)
          Option.iter (fun tr -> ignore (Trace.finish tr)) trace;
          account t prepared trace ~jobs ~seconds:(Timing.now () -. t0)
            ~failed:!failed)
        (fun () ->
          set_root_attrs trace prepared ~jobs
            ~cache:(if cache_on then "miss" else "off");
          let env =
            Eval.initial_env ~coll ~catalog:t.cat
              ~config:prepared.p_config ~strategy:prepared.p_strategy ?trace
              ?pool:(pool_for jobs) ~deadline ~functions:prepared.p_functions
              ~context ()
          in
          let env =
            List.fold_left
              (fun env (var, value) ->
                { env with Eval.vars = (var, Eval.eval env value) :: env.Eval.vars })
              env prepared.p_globals
          in
          let table =
            phase_span trace "eval" (fun () -> Eval.eval env prepared.p_plan)
          in
          let items = Table.to_sequence table in
          (* Serialize through the view, which still holds the arena.
             The deadline is threaded through: a timeout firing while
             the result is being rendered aborts the run with the same
             clean [Deadline_exceeded] as one firing during evaluation —
             no half-written output can reach a caller (the HTTP server
             turns this into a well-formed 408). *)
          let serialized =
            phase_span trace "serialize" (fun () ->
                match emit with
                | None -> Serialize.sequence ~deadline coll items
                | Some emit ->
                    (* Streamed: each item flushes through the caller's
                       sink at the serializer's deadline checkpoints —
                       the whole result is never materialized here. *)
                    Serialize.sequence_emit ~deadline coll items ~emit;
                    "")
          in
          failed := false;
          (* Streamed runs are never inserted: their serialization was
             handed away, not kept. *)
          (match key with
          | Some k when emit = None ->
              Lru.add t.result_cache ~generation k
                {
                  cr_items = items;
                  cr_serialized = serialized;
                  cr_config = prepared.p_config;
                }
          | _ -> ());
          {
            items;
            serialized;
            config = prepared.p_config;
            trace = Option.map Trace.root trace;
          })

(* The shared lock is granted before [run_prepared_unlocked] starts
   its clock, so [standoff_query_seconds] never counts lock wait. *)
let run_prepared t ?deadline ?context_doc ?rollback_constructed:_ ?use_cache
    ?jobs ?emit ?trace prepared =
  Rw_lock.read t.lock (fun () ->
      run_prepared_unlocked t ?deadline ?context_doc ?use_cache ?jobs ?emit
        ?trace prepared)

let run t ?strategy ?deadline ?context_doc ?rollback_constructed:_ ?trace
    query_text =
  let trace =
    match trace with
    | Some _ -> trace
    | None -> if trace_forced () then Some (Trace.create ()) else None
  in
  Rw_lock.read t.lock (fun () ->
      let prepared = prepare_unlocked t ?strategy ?trace query_text in
      run_prepared_unlocked t ?deadline ?context_doc ?trace prepared)

(* ------------------------------------------------------------------ *)
(* EXPLAIN / EXPLAIN ANALYZE                                          *)

let explain t ?strategy ?optimize ?dataguide query_text =
  render_prepared (prepare t ?strategy ?optimize ?dataguide query_text)

(* Fold the span tree of one traced run into a per-plan-node table.
   A node can be evaluated many times (loop bodies, function bodies):
   counts sum, [a_strategy] keeps the last strategy seen, and nodes
   with no span at all render as "(not executed)". *)
let analysis_of_trace root =
  let tbl : (int, Plan.analysis) Hashtbl.t = Hashtbl.create 64 in
  Trace.iter
    (fun sp ->
      let node = Trace.node sp in
      if node >= 0 then begin
        let a =
          match Hashtbl.find_opt tbl node with
          | Some a -> a
          | None ->
              let a = Plan.fresh_analysis () in
              Hashtbl.add tbl node a;
              a
        in
        a.Plan.a_calls <- a.Plan.a_calls + 1;
        let d = Trace.duration sp in
        if not (Float.is_nan d) then a.Plan.a_seconds <- a.Plan.a_seconds +. d;
        let add key f = Option.iter f (Trace.int_attr sp key) in
        add "rows_out" (fun n -> a.Plan.a_rows_out <- a.Plan.a_rows_out + n);
        add "rows_in" (fun n -> a.Plan.a_rows_in <- a.Plan.a_rows_in + n);
        add "index_rows" (fun n -> a.Plan.a_index_rows <- a.Plan.a_index_rows + n);
        add "chunks" (fun n -> a.Plan.a_chunks <- a.Plan.a_chunks + n);
        add "guide_rows" (fun n -> a.Plan.a_guide_rows <- a.Plan.a_guide_rows + n);
        match Trace.str_attr sp "strategy" with
        | Some s -> a.Plan.a_strategy <- Some (Config.strategy_of_string s)
        | None -> ()
      end)
    root;
  tbl

let explain_analyze t ?strategy ?dataguide ?(deadline = Timing.no_deadline)
    ?context_doc query_text =
  let trace = Trace.create () in
  let prepared =
    Rw_lock.read t.lock (fun () ->
        let prepared = prepare_unlocked t ?strategy ?dataguide ~trace query_text in
        (* [use_cache:false]: the whole point is to observe the
           evaluation, so a result-cache hit (which evaluates nothing and
           would render every operator "(not executed)") must be
           bypassed. *)
        ignore
          (run_prepared_unlocked t ~deadline ?context_doc ~use_cache:false
             ~trace prepared);
        prepared)
  in
  let tbl = analysis_of_trace (Trace.root trace) in
  render_prepared
    ~annotate:(fun p -> Plan.analyze_suffix p (Hashtbl.find_opt tbl p.Plan.id))
    prepared

let run_with_timeout t ?strategy ?context_doc ?trace ~seconds query_text =
  Timing.run_with_timeout ~seconds (fun deadline ->
      run t ?strategy ~deadline ?context_doc ?trace query_text)
