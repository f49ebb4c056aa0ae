(* Command-line interface to the StandOff XQuery engine.

   Subcommands:
     query      evaluate an XQuery (with the four StandOff axes) against
                XML documents loaded from disk
     shred      load a document and print storage/annotation statistics
     xmark-gen  generate an XMark document, optionally stand-off
                transformed with its BLOB
     axes       run the four StandOff joins between two node sets and
                print the §3.1-style table *)

module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Op = Standoff.Op
module Annots = Standoff.Annots
module Engine = Standoff_xquery.Engine
module Gen = Standoff_xmark.Gen
module Standoffify = Standoff_xmark.Standoffify
module Convert = Standoff_convert.Convert
module Flags = Standoff_flags.Flags

open Cmdliner

let handle_errors f =
  try f () with
  | Standoff_xquery.Err.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Standoff_xquery.Lexer.Syntax_error { line; col; msg } ->
      Printf.eprintf "syntax error at line %d, col %d: %s\n" line col msg;
      exit 1
  | Standoff_xml.Parser.Parse_error { line; col; msg } ->
      Printf.eprintf "XML parse error at line %d, col %d: %s\n" line col msg;
      exit 1
  | Annots.Invalid_region { pre; msg } ->
      Printf.eprintf "invalid region on node %d: %s\n" pre msg;
      exit 1
  | Standoff_store.Persist.Corrupt msg ->
      Printf.eprintf "corrupt database file: %s\n" msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "i/o error: %s\n" msg;
      exit 1
  | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

(* ---------------- query ---------------- *)

let query_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"XQuery text, or @FILE to read it from FILE.")
  in
  let context_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "c"; "context" ] ~docv:"DOCNAME"
          ~doc:"Document that leading '/' paths refer to.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc:"Abort after this long.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the optimized query plan instead of evaluating it \
             (candidate pushdown and strategy decisions included).")
  in
  let explain_analyze_arg =
    Arg.(
      value & flag
      & info [ "explain-analyze" ]
          ~doc:
            "Run the query and print the plan annotated with per-operator \
             row counts, index rows scanned, and timings.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "After the query, print the engine metrics (joins by strategy, \
             index probes, cache hits, pool queue stats, query latency \
             histogram) in Prometheus text format on stderr.")
  in
  let trace_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Collect a structured trace of the run (parse, optimize, one \
             span per plan operator with row counts) and write it to FILE \
             as JSON.  On timeout the partial trace is still written.")
  in
  let run docs blobs db options context timeout explain explain_analyze
      metrics trace_json query =
    handle_errors (fun () ->
        let query =
          if String.length query > 0 && query.[0] = '@' then (
            let path = String.sub query 1 (String.length query - 1) in
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic)))
          else query
        in
        let coll =
          if explain then
            (* --explain evaluates nothing, so a missing or unloadable
               collection must not stop it: fall back to an empty one
               (the plan still prints; only the statistics-driven
               decisions lose their input). *)
            try Flags.load_collection ?db docs blobs
            with _ -> Collection.create ()
          else Flags.load_collection ?db docs blobs
        in
        let engine = Engine.create ~options coll in
        Flags.report_slow_queries options;
        if explain then begin
          print_endline (Engine.explain engine query);
          exit 0
        end;
        if explain_analyze then begin
          let deadline =
            match timeout with
            | Some seconds -> Standoff_util.Timing.deadline_after seconds
            | None -> Standoff_util.Timing.no_deadline
          in
          print_endline
            (Engine.explain_analyze engine ~deadline ?context_doc:context
               query);
          if metrics then prerr_string (Standoff_obs.Metrics.expose ());
          exit 0
        end;
        let trace =
          Option.map (fun _ -> Standoff_obs.Trace.create ()) trace_json
        in
        (* Emitted on the DNF path too: the collector is finished by the
           run's own cleanup, so the partial trace is well-formed. *)
        let finish () =
          (match (trace_json, trace) with
          | Some path, Some tr ->
              let oc = open_out_bin path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () ->
                  output_string oc (Standoff_obs.Trace.to_json tr);
                  output_char oc '\n')
          | _ -> ());
          if metrics then prerr_string (Standoff_obs.Metrics.expose ())
        in
        match timeout with
        | None ->
            (* Parse/lower/optimize once, then evaluate the prepared
               plan (the query text is not parsed a second time). *)
            let prepared = Engine.prepare engine ?trace query in
            let r =
              Engine.run_prepared engine ?context_doc:context ?trace prepared
            in
            print_endline r.Engine.serialized;
            finish ()
        | Some seconds -> (
            match
              Engine.run_with_timeout engine ?context_doc:context ?trace
                ~seconds query
            with
            | Standoff_util.Timing.Finished (r, t) ->
                print_endline r.Engine.serialized;
                Printf.eprintf "(%.3fs)\n" t;
                finish ()
            | Standoff_util.Timing.Timed_out t ->
                finish ();
                Printf.eprintf "DNF: gave up after %.1fs\n" t;
                exit 2))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XQuery with StandOff axis support")
    Term.(
      const run $ Flags.docs_arg $ Flags.blobs_arg $ Flags.db_arg
      $ Flags.engine_options $ context_arg $ timeout_arg $ explain_arg
      $ explain_analyze_arg $ metrics_arg $ trace_json_arg $ query_arg)

(* ---------------- shred ---------------- *)

let shred_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run path =
    handle_errors (fun () ->
        let dom = Standoff_xml.Parser.parse_file path in
        let doc = Doc.of_dom ~name:(Filename.basename path) dom in
        Doc.check_invariants doc;
        Printf.printf "document:      %s\n" path;
        Printf.printf "nodes:         %d\n" (Doc.node_count doc);
        Printf.printf "attributes:    %d\n" (Doc.attribute_count doc);
        Printf.printf "elements:      %d\n" (Array.length (Doc.all_elements doc));
        let annots = Annots.extract Config.default doc in
        Printf.printf "annotations:   %d (attribute representation, start/end)\n"
          (Annots.annotation_count annots);
        Printf.printf "region rows:   %d\n"
          (Standoff.Region_index.row_count annots.Annots.index);
        let annots_el =
          Annots.extract (Config.with_region_elements Config.default) doc
        in
        Printf.printf
          "annotations:   %d (element representation, region/start/end)\n"
          (Annots.annotation_count annots_el))
  in
  Cmd.v
    (Cmd.info "shred" ~doc:"Shred a document and print storage statistics")
    Term.(const run $ file_arg)

(* ---------------- xmark-gen ---------------- *)

let xmark_cmd =
  let scale_arg =
    Arg.(
      value & opt float 0.01
      & info [ "scale" ] ~docv:"FACTOR" ~doc:"XMark scale factor (1.0 = 110MB).")
  in
  let seed_arg =
    Arg.(value & opt int64 20060630L & info [ "seed" ] ~docv:"SEED")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output XML file.")
  in
  let standoff_arg =
    Arg.(
      value & flag
      & info [ "standoff" ]
          ~doc:"Apply the StandOff transformation (writes FILE plus FILE.blob).")
  in
  let no_permute_arg =
    Arg.(
      value & flag
      & info [ "no-permute" ] ~doc:"Skip the coarse permutation step.")
  in
  let run scale seed out standoff no_permute =
    handle_errors (fun () ->
        let dom = Gen.generate { Gen.scale; seed } in
        if standoff then begin
          let t = Standoffify.transform ~permute:(not no_permute) dom in
          Standoff_xml.Serializer.to_file ~declaration:true out t.Standoffify.doc;
          let oc = open_out_bin (out ^ ".blob") in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc t.Standoffify.blob);
          Printf.printf "wrote %s and %s.blob\n" out out
        end
        else begin
          Standoff_xml.Serializer.to_file ~declaration:true out dom;
          Printf.printf "wrote %s\n" out
        end)
  in
  Cmd.v
    (Cmd.info "xmark-gen" ~doc:"Generate an XMark document (optionally stand-off)")
    Term.(
      const run $ scale_arg $ seed_arg $ out_arg $ standoff_arg $ no_permute_arg)

(* ---------------- axes ---------------- *)

let axes_cmd =
  let context_q =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"XPATH" ~doc:"Context node expression (S1).")
  in
  let candidate_q =
    Arg.(
      required
      & opt (some string) None
      & info [ "to" ] ~docv:"XPATH" ~doc:"Candidate node expression (S2).")
  in
  let run docs blobs strategy from_q to_q =
    handle_errors (fun () ->
        let coll = Flags.load_collection docs blobs in
        let engine = Engine.create ?strategy coll in
        List.iter
          (fun op ->
            let q =
              Printf.sprintf "%s(%s, %s)" (Op.to_string op) from_q to_q
            in
            let r = Engine.run engine q in
            Printf.printf "%s:\n%s\n\n" (Op.to_string op) r.Engine.serialized)
          Op.all)
  in
  Cmd.v
    (Cmd.info "axes"
       ~doc:"Run all four StandOff joins between two node expressions")
    Term.(
      const run $ Flags.docs_arg $ Flags.blobs_arg $ Flags.strategy_arg
      $ context_q $ candidate_q)

(* ---------------- index ---------------- *)

let index_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let region_el_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "region-element" ] ~docv:"NAME"
          ~doc:"Use the element representation with this region element name.")
  in
  let run path region_el =
    handle_errors (fun () ->
        let doc =
          if Filename.check_suffix path ".sodb" then
            Standoff_store.Persist.load_doc path
          else
            Doc.of_dom ~name:(Filename.basename path)
              (Standoff_xml.Parser.parse_file path)
        in
        let config =
          match region_el with
          | Some region_name ->
              Config.with_region_elements ~region_name Config.default
          | None -> Config.default
        in
        let annots = Annots.extract config doc in
        let idx = annots.Annots.index in
        Printf.printf "%12s %12s %8s  %s\n" "start" "end" "id" "element";
        for row = 0 to Standoff.Region_index.row_count idx - 1 do
          let pre = idx.Standoff.Region_index.ids.(row) in
          Printf.printf "%12Ld %12Ld %8d  %s%s\n"
            idx.Standoff.Region_index.starts.{row}
            idx.Standoff.Region_index.ends.{row}
            pre
            (Option.value ~default:"?" (Doc.name_of doc pre))
            (if idx.Standoff.Region_index.region_ranks.(row) > 0 then
               Printf.sprintf " (region %d)"
                 idx.Standoff.Region_index.region_ranks.(row)
             else "")
        done;
        Printf.printf "%d region rows over %d annotations\n"
          (Standoff.Region_index.row_count idx)
          (Annots.annotation_count annots))
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Print the region index (start|end|id, clustered on start)")
    Term.(const run $ file_arg $ region_el_arg)

(* ---------------- convert ---------------- *)

(* "words=w,token;paras=p" -> [("words", ["w"; "token"]); ("paras", ["p"])] *)
let parse_layer_spec spec =
  String.split_on_char ';' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun part ->
         match String.index_opt part '=' with
         | Some i ->
             let name = String.trim (String.sub part 0 i) in
             let tags =
               String.sub part (i + 1) (String.length part - i - 1)
               |> String.split_on_char ','
               |> List.map String.trim
               |> List.filter (fun t -> t <> "")
             in
             if name = "" || tags = [] then
               invalid_arg
                 (Printf.sprintf "malformed layer %S (want NAME=TAG[,TAG...])"
                    part)
             else (name, tags)
         | None ->
             invalid_arg
               (Printf.sprintf "malformed layer %S (want NAME=TAG[,TAG...])"
                  part))

let write_text path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let convert_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Input XML file(s).  $(b,--to-standoff) takes one inline \
             document; $(b,--to-inline) accepts several annotation \
             documents placed together.")
  in
  let to_standoff_arg =
    Arg.(
      value & flag
      & info [ "to-standoff" ]
          ~doc:
            "Convert inline markup to stand-off: writes OUT (the \
             annotation document), OUT.blob (the extracted text), and one \
             OUT.LAYER.xml per $(b,--layers) entry.")
  in
  let to_inline_arg =
    Arg.(
      value & flag
      & info [ "to-inline" ]
          ~doc:
            "Re-insert stand-off annotations into their BLOB as inline \
             element tags (requires $(b,--blob)).")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let blob_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "blob" ] ~docv:"FILE"
          ~doc:"The BLOB the annotation extents refer to ($(b,--to-inline)).")
  in
  let layers_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "layers" ] ~docv:"SPEC"
          ~doc:
            "Layered output ($(b,--to-standoff)): \
             NAME=TAG[,TAG...][;NAME=...]; each layer is a flat annotation \
             document over the shared BLOB.")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw-extents" ]
          ~doc:
            "$(b,--to-inline) over foreign annotations: extents address \
             plain text directly, so do not treat the first byte of every \
             extent as a conversion separator.")
  in
  let run files to_so to_in out blob layers raw =
    handle_errors (fun () ->
        match (to_so, to_in) with
        | true, false ->
            let file =
              match files with
              | [ f ] -> f
              | _ -> invalid_arg "--to-standoff takes exactly one input file"
            in
            let layers =
              Option.value ~default:[] (Option.map parse_layer_spec layers)
            in
            let conv =
              Convert.to_standoff ~layers
                (Standoff_xml.Parser.parse_file file)
            in
            Standoff_xml.Serializer.to_file ~declaration:true out
              conv.Convert.doc;
            write_text (out ^ ".blob") conv.Convert.blob;
            Printf.printf "wrote %s and %s.blob (%d bytes of text)\n" out out
              (String.length conv.Convert.blob);
            List.iter
              (fun (name, layer_doc) ->
                let path =
                  Printf.sprintf "%s.%s.xml" (Filename.remove_extension out)
                    name
                in
                Standoff_xml.Serializer.to_file ~declaration:true path
                  layer_doc;
                Printf.printf "wrote layer %s to %s (%d annotations)\n" name
                  path
                  (List.length layer_doc.Standoff_xml.Dom.root.Standoff_xml.Dom.children))
              conv.Convert.layers
        | false, true ->
            let blob =
              match blob with
              | Some b -> read_text b
              | None -> invalid_arg "--to-inline requires --blob FILE"
            in
            let docs = List.map Standoff_xml.Parser.parse_file files in
            let dom =
              Convert.to_inline ~consume_separator:(not raw) ~blob docs
            in
            Standoff_xml.Serializer.to_file ~declaration:true out dom;
            Printf.printf "wrote %s\n" out
        | _ -> invalid_arg "pass exactly one of --to-standoff / --to-inline")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert between inline markup and stand-off annotations \
          (round-trip safe; layered output)")
    Term.(
      const run $ files_arg $ to_standoff_arg $ to_inline_arg $ out_arg
      $ blob_arg $ layers_arg $ raw_arg)

(* ---------------- db-save ---------------- *)

let db_save_cmd =
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.sodb")
  in
  let run docs blobs out =
    handle_errors (fun () ->
        let coll = Flags.load_collection docs blobs in
        Standoff_store.Persist.save_collection coll out;
        Printf.printf "saved %d document(s) to %s\n" (Collection.doc_count coll)
          out)
  in
  Cmd.v
    (Cmd.info "db-save"
       ~doc:
         "Shred documents and save them (plus BLOBs) as a binary database \
          that 'query --db' loads without re-parsing")
    Term.(const run $ Flags.docs_arg $ Flags.blobs_arg $ out_arg)

let () =
  let info =
    Cmd.info "standoff-cli"
      ~doc:"Stand-off annotation querying with XQuery (Alink et al., 2006)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            query_cmd;
            shred_cmd;
            xmark_cmd;
            axes_cmd;
            index_cmd;
            convert_cmd;
            db_save_cmd;
          ]))
