(* Command-line pieces shared by [standoff-cli query],
   [standoff-server] and [standoff-router], each with one meaning in
   all of them: the engine settings, the document-loading flags, the
   slow-query stderr sink and the WAL fsync policy. *)

module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Blob = Standoff_store.Blob
module Config = Standoff.Config
module Options = Standoff_xquery.Engine.Options
module Slow_log = Standoff_obs.Slow_log
module Wal = Standoff_store.Wal

open Cmdliner

(* A conv over one of the engine's parsers: every flag spells a value
   exactly as the environment and the HTTP parameters do. *)
let parsed parse print =
  Arg.conv
    ( (fun s -> try Ok (parse s) with Invalid_argument m -> Error (`Msg m)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let strategy_arg =
  Arg.(
    value
    & opt (some (parsed Config.strategy_of_string Config.strategy_to_string)) None
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Pin the evaluation strategy engine-wide: udf-nocand | udf-cand \
           | basic | loop-lifted.  Default: each operator picks its own \
           from annotation statistics.  The server's clients can still \
           override it per request with ?strategy=.")

let jobs_arg =
  Arg.(
    value
    & opt (some (parsed Options.jobs_of_string string_of_int)) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate with up to N domains in parallel (merge sweeps, index \
           builds, per-document shards).  1 = fully sequential; 0 = \
           adaptive, sized per query from its plan cost within what the \
           domain budget has left (after the server's connection \
           workers).  Defaults to \\$(b,STANDOFF_JOBS), else 0.")

let cache_arg =
  Arg.(
    value
    & opt (some (parsed Options.cache_of_string Options.cache_to_string)) None
    & info [ "cache" ] ~docv:"MODE"
        ~doc:
          "Query caching level: off | plan (reuse prepared plans) | result \
           (additionally serve byte-identical results for repeat queries; \
           updates invalidate).  Defaults to \\$(b,STANDOFF_CACHE), else \
           off.  The result-cache byte budget is 64 MiB, overridable with \
           \\$(b,STANDOFF_CACHE_MB).")

let dataguide_arg =
  Arg.(
    value
    & opt (some (parsed Options.bool_of_string string_of_bool)) None
    & info [ "dataguide" ] ~docv:"on|off"
        ~doc:
          "Use the DataGuide path index: downward child/descendant name \
           paths collapse into single index probes and the planner's \
           statistics answer from per-path cardinalities.  Results are \
           byte-identical either way.  Defaults to \
           \\$(b,STANDOFF_DATAGUIDE), else on.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some (parsed Options.slow_ms_of_string string_of_float)) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Slow-query threshold in milliseconds: runs at least this slow \
           land in the slow-query log (the server's GET /slow) and on \
           stderr.  Defaults to \\$(b,STANDOFF_SLOW_MS), else disabled.")

let engine_options =
  let make strategy jobs cache dataguide slow_ms =
    match Options.of_env () with
    | o -> Ok (Options.override ?strategy ?jobs ?cache ?dataguide ?slow_ms o)
    | exception Invalid_argument m -> Error m
  in
  Term.(
    term_result'
      (const make $ strategy_arg $ jobs_arg $ cache_arg $ dataguide_arg
     $ slow_ms_arg))

let report_slow_queries (o : Options.t) =
  if o.Options.slow_ms <> None then
    Slow_log.set_sink
      (Some
         (fun e ->
           Printf.eprintf "slow query: %s\n%!" (Slow_log.entry_to_string e)))

let docs_arg =
  Arg.(
    value & opt_all file []
    & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"XML document to load (repeatable).")

let blobs_arg =
  Arg.(
    value & opt_all string []
    & info [ "b"; "blob" ] ~docv:"NAME=FILE"
        ~doc:"BLOB to register under NAME (repeatable).")

let db_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "db" ] ~docv:"FILE"
        ~doc:
          "Load a saved collection database (see standoff-cli db-save).")

let load_collection ?db docs blobs =
  let coll =
    match db with
    | Some path -> Standoff_store.Persist.load_collection path
    | None -> Collection.create ()
  in
  List.iter
    (fun path ->
      let name = Filename.basename path in
      let doc =
        (* .sodb documents load from the binary store, skipping the
           parse/shred pipeline. *)
        if Filename.check_suffix path ".sodb" then
          Standoff_store.Persist.load_doc path
        else Doc.of_dom ~name (Standoff_xml.Parser.parse_file path)
      in
      ignore (Collection.add coll doc))
    docs;
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          Collection.add_blob coll (Blob.of_file ~name path)
      | None ->
          Collection.add_blob coll
            (Blob.of_file ~name:(Filename.basename spec) spec))
    blobs;
  coll

let fsync_conv = parsed Wal.fsync_policy_of_string Wal.fsync_policy_to_string
