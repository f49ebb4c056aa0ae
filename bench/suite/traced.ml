(* The traced run: no server.  An in-process engine, set up like the
   workload's server, replays the first requests of the workload's
   seeded sequence; the suite times each call into a layer's public
   functions from outside and reads the span tree the engine already
   returns.  Nothing inside lib/ is instrumented for it. *)

module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Dataguide = Standoff_store.Dataguide
module Wal = Standoff_store.Wal
module Engine = Standoff_xquery.Engine
module Trace = Standoff_obs.Trace
module Config = Standoff.Config
module Catalog = Standoff.Catalog
module Durable = Standoff.Durable
module Region = Standoff_interval.Region
module Convert = Standoff_convert.Convert
module Prng = Standoff_util.Prng

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Operator spans are labelled by [Plan.label]; self times are summed
   per operator family. *)
let op_families =
  [ "standoff-join"; "path-lookup"; "step"; "filter"; "construct"; "other" ]

let op_family label =
  let has p = String.starts_with ~prefix:p label in
  if has "standoff-join" then "standoff-join"
  else if has "path-lookup" then "path-lookup"
  else if has "step " then "step"
  else if has "filter" then "filter"
  else if has "element " then "construct"
  else "other"

(* One update every 50 reads in update-mix: about the served ratio of
   5 updates/s to a few hundred reads/s. *)
let reads_per_update = 50

(* One engine built like the workload's server, replaying the
   sequence; [traced] lanes record a span tree for every prepare and
   run. *)
type lane = {
  traced : bool;
  eng : Engine.t;
  doc : Doc.t;
  next_update : unit -> int * int64 * int64;
  mutable engine_s : float;  (** summed [run_prepared] wall time *)
  mutable prepare_ms : float list;
  mutable minor_words : float;
  mutable major_words : float;
  mutable major_collections : int;
}

let lane ~traced (w : Workload.t) (input : Input.t) ~seed =
  let doc = Input.shred input in
  let eng = Engine.create ~jobs:0 ~cache:w.cache ~dataguide:true (Collection.create ()) in
  ignore (Engine.ingest eng [ doc ] [ (Input.blob_name, input.Input.blob) ]);
  let streams = Workload.streams ~seed (w.readers + 1) in
  {
    traced;
    eng;
    doc;
    next_update = Workload.writer (Input.increases input) streams.(w.readers);
    engine_s = 0.0;
    prepare_ms = [];
    minor_words = 0.0;
    major_words = 0.0;
    major_collections = 0;
  }

(* Request [i] on [l]; update-mix lanes apply the writer's next update
   first every [reads_per_update] reads.  Returns the run's span tree. *)
let step (w : Workload.t) l i text =
  if w.writer_rate <> None && i > 0 && i mod reads_per_update = 0 then begin
    let pre, s, e = l.next_update () in
    Engine.set_region l.eng Config.default l.doc ~pre (Region.make s e)
  end;
  let trace = if l.traced then Some (Trace.create ()) else None in
  let gc0 = Gc.quick_stat () in
  let p, prep_s = time (fun () -> Engine.prepare l.eng ?trace text) in
  let r, run_s =
    time (fun () ->
        Engine.run_prepared l.eng ~rollback_constructed:(Engine.prepared_constructs p)
          ?trace p)
  in
  let gc1 = Gc.quick_stat () in
  l.prepare_ms <- (prep_s *. 1e3) :: l.prepare_ms;
  l.engine_s <- l.engine_s +. run_s;
  l.minor_words <- l.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
  l.major_words <- l.major_words +. gc1.Gc.major_words -. gc0.Gc.major_words;
  l.major_collections <-
    l.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
  r.Engine.trace

(* The update path in isolation: [Engine.set_region], then the two
   rebuilds the next reader pays for — [Catalog.annots] and
   [Dataguide.get] — each a median over [rounds] toggles. *)
let update_path (input : Input.t) ~seed ~rounds =
  let doc = Input.shred input in
  let eng = Engine.create ~jobs:1 ~cache:Engine.Cache_off (Collection.create ()) in
  ignore (Engine.ingest eng [ doc ] [ (Input.blob_name, input.Input.blob) ]);
  let cat = Engine.catalog eng in
  let next = Workload.writer (Input.increases input) (Prng.create (Int64.of_int seed)) in
  let set = ref [] and annots = ref [] and guide = ref [] in
  for _ = 1 to rounds do
    let pre, s, e = next () in
    let (), t_set =
      time (fun () -> Engine.set_region eng Config.default doc ~pre (Region.make s e))
    in
    let _, t_annots = time (fun () -> Catalog.annots cat Config.default doc) in
    let _, t_guide =
      time (fun () ->
          Dataguide.get ~generation:(Catalog.generation cat Input.doc_name) doc)
    in
    set := t_set :: !set;
    annots := t_annots :: !annots;
    guide := t_guide :: !guide
  done;
  (Stats.median !set, Stats.median !annots, Stats.median !guide)

(* [Durable.log] of one set-region record under fsync=always, into a
   scratch data directory. *)
let wal_log ~work_dir ~rounds =
  let dir = Filename.concat work_dir "wal-probe" in
  Served.rm_rf dir;
  let d, _ = Durable.open_dir ~policy:Wal.Always ~snapshot_every:0 dir in
  let times =
    Fun.protect
      ~finally:(fun () ->
        Durable.close d;
        Served.rm_rf dir)
      (fun () ->
        List.init rounds (fun i ->
            snd
              (time (fun () ->
                   Durable.log d
                     (Wal.Set_region
                        {
                          doc = Input.doc_name;
                          start_attr = "start";
                          end_attr = "end";
                          ptype = Config.default.Config.position_type;
                          pre = 2;
                          start_pos = 0L;
                          end_pos = Int64.of_int i;
                        })))))
  in
  Stats.median times

(* What set-up costs, layer by layer, on the bytes the server is sent:
   parse, convert, shred, and [Engine.ingest] (region index and
   DataGuide builds). *)
let setup_layers (w : Workload.t) (input : Input.t) =
  let dom, parse_s =
    time (fun () -> Standoff_xml.Parser.parse_string input.Input.inline)
  in
  let conv, convert_s = time (fun () -> Convert.to_standoff dom) in
  let doc, shred_s = time (fun () -> Doc.of_dom ~name:Input.doc_name conv.Convert.doc) in
  let (_ : int), ingest_s =
    time (fun () ->
        Engine.ingest
          (Engine.create ~jobs:0 ~cache:w.cache ~dataguide:true (Collection.create ()))
          [ doc ]
          [ (Input.blob_name, conv.Convert.blob) ])
  in
  [
    ("xml.parse_s", parse_s, "s");
    ("convert.to_standoff_s", convert_s, "s");
    ("store.shred_s", shred_s, "s");
    ("xquery.ingest_s", ingest_s, "s");
  ]

let run ~work_dir ~seed ~requests (w : Workload.t) (input : Input.t) =
  let setup = setup_layers w input in
  let streams = Workload.streams ~seed (w.readers + 1) in
  let next = Workload.reader w input.Input.counts streams.(0) in
  let texts = List.init requests (fun _ -> next ()) in
  (* The same replay on two engines in lockstep, which one goes first
     alternating: the untraced lane gives engine time and allocation,
     the traced one the span tree, and since both see the same moments
     of the machine, their engine-time difference is the cost of the
     tracing itself. *)
  let plain = lane ~traced:false w input ~seed in
  let traced = lane ~traced:true w input ~seed in
  let self_s = Hashtbl.create 8 in
  let eval_s = ref 0.0 and serialize_s = ref 0.0 in
  let rec walk sp =
    let kids = Trace.children sp in
    (match Trace.name sp with
    | "eval" -> eval_s := !eval_s +. Trace.duration sp
    | "serialize" -> serialize_s := !serialize_s +. Trace.duration sp
    | _ -> ());
    if Trace.node sp >= 0 then begin
      let self =
        List.fold_left (fun acc k -> acc -. Trace.duration k) (Trace.duration sp) kids
      in
      let f = op_family (Trace.name sp) in
      Hashtbl.replace self_s f
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt self_s f))
    end;
    List.iter walk kids
  in
  List.iteri
    (fun i text ->
      let run_traced () = Option.iter walk (step w traced i text) in
      if i mod 2 = 0 then begin
        ignore (step w plain i text);
        run_traced ()
      end
      else begin
        run_traced ();
        ignore (step w plain i text)
      end)
    texts;
  let n = float_of_int requests in
  let per_q_ms s = s *. 1e3 /. n in
  let replayed =
  [
    ("xquery.prepare_ms", Stats.median plain.prepare_ms, "ms");
    ("xquery.eval_ms", per_q_ms !eval_s, "ms");
    ("xquery.serialize_ms", per_q_ms !serialize_s, "ms");
  ]
  @ List.map
      (fun f ->
        ( Printf.sprintf "xquery.op.%s.self_ms" f,
          per_q_ms (Option.value ~default:0.0 (Hashtbl.find_opt self_s f)),
          "ms" ))
      op_families
  @ [
      ( "xquery.trace_overhead_pct",
        100.0 *. Stats.ratio (traced.engine_s -. plain.engine_s) plain.engine_s,
        "%" );
      ("gc.minor_words_per_q", plain.minor_words /. n, "words/q");
      ("gc.major_words_per_q", plain.major_words /. n, "words/q");
      ( "gc.major_collections_per_kq",
        1e3 *. float_of_int plain.major_collections /. n,
        "1/kq" );
    ]
  in
  (* The replay engines are dead by now; the update path builds its own. *)
  let set_s, annots_s, guide_s = update_path input ~seed ~rounds:20 in
  replayed
  @ [
      ("core.set_region_ms", set_s *. 1e3, "ms");
      ("core.annots_rebuild_ms", annots_s *. 1e3, "ms");
      ("store.dataguide_rebuild_ms", guide_s *. 1e3, "ms");
      ("store.wal_log_ms", wal_log ~work_dir ~rounds:20 *. 1e3, "ms");
    ]
  @ setup
