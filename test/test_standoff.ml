(* Core StandOff join tests: configuration, extraction, the region
   index, the paper's §3.1 multimedia example, and the central
   agreement property — all four strategies equal the executable
   formal semantics on random annotation documents, in both
   representations. *)

module Doc = Standoff_store.Doc
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area
module Config = Standoff.Config
module Op = Standoff.Op
module Annots = Standoff.Annots
module Region_index = Standoff.Region_index
module Spec = Standoff.Spec
module Join = Standoff.Join
module Catalog = Standoff.Catalog
module Engine = Standoff_xquery.Engine

(* ------------------------------------------------------------ *)
(* Configuration                                                 *)

let test_config_defaults () =
  Alcotest.(check string) "start" "start" Config.default.Config.start_name;
  Alcotest.(check string) "end" "end" Config.default.Config.end_name;
  Alcotest.(check bool) "attribute representation" true
    (Config.representation Config.default = Config.Attributes)

let test_config_options () =
  let c = Config.set_option Config.default ~name:"start" ~value:"from" in
  let c = Config.set_option c ~name:"end" ~value:"to" in
  let c = Config.set_option c ~name:"region" ~value:"span" in
  Alcotest.(check string) "start renamed" "from" c.Config.start_name;
  Alcotest.(check bool) "element representation" true
    (Config.representation c = Config.Region_elements);
  Alcotest.check_raises "bad option" (Invalid_argument "unknown option standoff-foo")
    (fun () -> ignore (Config.set_option c ~name:"foo" ~value:"x"));
  Alcotest.(check bool) "bad qname rejected" true
    (match Config.set_option c ~name:"start" ~value:"1bad" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_strategy_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Config.strategy_to_string s)
        true
        (Config.strategy_of_string (Config.strategy_to_string s) = s))
    Config.all_strategies

(* ------------------------------------------------------------ *)
(* Extraction                                                    *)

let test_extract_attributes () =
  let d =
    Doc.parse ~name:"t"
      "<t><a start=\"1\" end=\"10\"><b start=\"20\" end=\"5\"/></a></t>"
  in
  (* b has start > end: extraction must reject the document. *)
  Alcotest.(check bool) "invalid region" true
    (match Annots.extract Config.default d with
    | exception Annots.Invalid_region _ -> true
    | _ -> false)

let test_extract_nested_unrestricted () =
  (* Descendant annotations need not be contained in their ancestors'
     regions (paper §2). *)
  let d =
    Doc.parse ~name:"t"
      "<t><a start=\"10\" end=\"20\"><b start=\"100\" end=\"200\"/></a></t>"
  in
  let annots = Annots.extract Config.default d in
  Alcotest.(check int) "two annotations" 2 (Annots.annotation_count annots)

let test_extract_partial_attrs_rejected () =
  let d = Doc.parse ~name:"t" "<t><a start=\"1\"/></t>" in
  Alcotest.(check bool) "start without end" true
    (match Annots.extract Config.default d with
    | exception Annots.Invalid_region _ -> true
    | _ -> false)

let test_extract_non_integer_rejected () =
  let d = Doc.parse ~name:"t" "<t><a start=\"x\" end=\"10\"/></t>" in
  Alcotest.(check bool) "non-integer" true
    (match Annots.extract Config.default d with
    | exception Annots.Invalid_region _ -> true
    | _ -> false)

let test_extract_renamed () =
  let config =
    Config.set_option
      (Config.set_option Config.default ~name:"start" ~value:"from")
      ~name:"end" ~value:"to"
  in
  let d = Doc.parse ~name:"t" "<t><a from=\"1\" to=\"10\" start=\"9\" end=\"99\"/></t>" in
  let annots = Annots.extract config d in
  Alcotest.(check int) "one annotation" 1 (Annots.annotation_count annots);
  match Annots.area_of annots 2 with
  | Some area ->
      Alcotest.(check string) "renamed attrs win" "{[1,10]}" (Area.to_string area)
  | None -> Alcotest.fail "annotation missing"

let test_extract_region_elements () =
  let config = Config.with_region_elements Config.default in
  let d =
    Doc.parse ~name:"t"
      "<t><file><region><start>0</start><end>9</end></region>\
       <region><start>100</start><end>199</end></region></file>\
       <plain/></t>"
  in
  let annots = Annots.extract config d in
  Alcotest.(check int) "one annotation" 1 (Annots.annotation_count annots);
  Alcotest.(check int) "multi-region mode" 2 annots.Annots.max_regions_per_area;
  match Annots.area_of annots 2 with
  | Some area ->
      Alcotest.(check string) "area" "{[0,9];[100,199]}" (Area.to_string area)
  | None -> Alcotest.fail "annotation missing"

let test_extract_attr_mode_ignores_region_elements () =
  let d =
    Doc.parse ~name:"t"
      "<t><file><region><start>0</start><end>9</end></region></file></t>"
  in
  let annots = Annots.extract Config.default d in
  Alcotest.(check int) "no annotations in attribute mode" 0
    (Annots.annotation_count annots)

(* ------------------------------------------------------------ *)
(* Region index                                                  *)

let test_index_clustering () =
  let idx =
    Region_index.build
      [
        (10, Area.of_region (Region.make_int 5 9));
        (11, Area.of_region (Region.make_int 0 100));
        (12, Area.make [ Region.make_int 5 20; Region.make_int 50 60 ]);
      ]
  in
  Alcotest.(check int) "rows (multi-region repeats id)" 4
    (Region_index.row_count idx);
  Alcotest.(check (list int64)) "clustered on start" [ 0L; 5L; 5L; 50L ]
    (Region_index.positions_to_list idx.Region_index.starts);
  (* Equal starts: wider region first. *)
  Alcotest.(check (list int)) "ids" [ 11; 12; 10; 12 ]
    (Array.to_list idx.Region_index.ids)

let dump_index idx =
  ( Region_index.positions_to_list idx.Region_index.starts,
    Region_index.positions_to_list idx.Region_index.ends,
    Array.to_list idx.Region_index.ids,
    Array.to_list idx.Region_index.region_ranks )

(* The build skips its sort when the rows already arrive in sweep
   order.  The total order keeps that invisible: shuffled and reversed
   copies of the same pairs build the same index. *)
let test_index_order_independent () =
  let ordered =
    List.concat
      (List.init 1200 (fun b ->
           let base = b * 100 in
           (b * 11, Area.of_region (Region.make_int base (base + 99)))
           :: List.init 10 (fun c ->
                  let s = base + (c * 10) in
                  ((b * 11) + 1 + c, Area.of_region (Region.make_int s (s + 9))))))
  in
  let shuffled =
    let a = Array.of_list ordered in
    let rng = Random.State.make [| 7 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let reference = dump_index (Region_index.build ordered) in
  List.iter
    (fun (label, idx) ->
      Alcotest.(check bool) label true (dump_index idx = reference))
    [
      ("shuffled", Region_index.build shuffled);
      ("reversed", Region_index.build (List.rev ordered));
    ]

let test_restrict_ids () =
  let d =
    Doc.parse ~name:"t"
      "<t><a start=\"0\" end=\"9\"/><plain/><b start=\"5\" end=\"7\"/></t>"
  in
  let annots = Annots.extract Config.default d in
  (* Pres: t=1, a=2, plain=3, b=4; only a and b are annotations. *)
  Alcotest.(check (array int)) "keeps annotations only" [| 2; 4 |]
    (Annots.restrict_ids annots ~candidates:[| 1; 2; 3; 4 |]);
  Alcotest.(check bool) "is_annotation" true (Annots.is_annotation annots 4);
  Alcotest.(check bool) "plain is not" false (Annots.is_annotation annots 3)

let test_index_restrict () =
  let idx =
    Region_index.build
      [
        (10, Area.of_region (Region.make_int 5 9));
        (11, Area.of_region (Region.make_int 0 100));
        (12, Area.make [ Region.make_int 5 20; Region.make_int 50 60 ]);
      ]
  in
  let r = Region_index.restrict idx ~ids:[| 10; 12 |] in
  Alcotest.(check int) "restricted rows" 3 (Region_index.row_count r);
  Alcotest.(check (list int64)) "start order preserved" [ 5L; 5L; 50L ]
    (Region_index.positions_to_list r.Region_index.starts)

(* A loop-lifted query that cycles its joins over more element names
   than any small cache holds must build each name's candidate index
   exactly once, and nothing on later cycles. *)
let test_per_name_index_built_once () =
  let names = List.init 10 (Printf.sprintf "e%d") in
  let body =
    List.concat_map
      (fun k ->
        List.mapi
          (fun i name ->
            let s = (k * 100) + (i * 5) in
            Printf.sprintf "<%s start=\"%d\" end=\"%d\"/>" name s (s + 20))
          names)
      (List.init 4 Fun.id)
  in
  let d = Doc.parse ~name:"names" ("<t>" ^ String.concat "" body ^ "</t>") in
  let annots = Annots.extract Config.default d in
  let builds = Standoff_obs.Metrics.counter "standoff_index_builds_total" in
  let context_pres = annots.Annots.ids in
  let context_iters = Array.map (fun pre -> pre mod 3) context_pres in
  let order = Array.init (Array.length context_pres) Fun.id in
  Array.stable_sort
    (fun a b -> compare context_iters.(a) context_iters.(b))
    order;
  let context_iters = Array.map (Array.get context_iters) order
  and context_pres = Array.map (Array.get context_pres) order in
  let cycle () =
    let before = Standoff_obs.Metrics.counter_value builds in
    List.iter
      (fun name ->
        ignore
          (Join.run_lifted Op.Select_narrow Config.Loop_lifted annots
             ~loop:[| 0; 1; 2 |] ~context_iters ~context_pres
             ~candidates:(Join.Named name) ()))
      names;
    Standoff_obs.Metrics.counter_value builds - before
  in
  Alcotest.(check int) "first cycle: one build per name" 10 (cycle ());
  Alcotest.(check int) "second cycle: no builds" 0 (cycle ());
  Alcotest.(check int) "third cycle: no builds" 0 (cycle ())

(* ------------------------------------------------------------ *)
(* The §3.1 multimedia example (Figure 1)                        *)

let figure1 =
  "<sample>\
   <video>\
   <shot id=\"Intro\" start=\"0\" end=\"8\"/>\
   <shot id=\"Interview\" start=\"8\" end=\"64\"/>\
   <shot id=\"Outro\" start=\"64\" end=\"94\"/>\
   </video>\
   <audio>\
   <music artist=\"U2\" start=\"0\" end=\"31\"/>\
   <music artist=\"Bach\" start=\"52\" end=\"94\"/>\
   </audio>\
   </sample>"

let figure1_setup () =
  let d = Doc.parse ~name:"figure1" figure1 in
  let annots = Annots.extract Config.default d in
  let u2 =
    Array.of_list
      (List.filter
         (fun pre -> Doc.attribute d pre "artist" = Some "U2")
         (Array.to_list (Doc.elements_named d "music")))
  in
  let shots = Doc.elements_named d "shot" in
  (d, annots, u2, shots)

let shot_ids d pres =
  List.filter_map (fun pre -> Doc.attribute d pre "id") (Array.to_list pres)

let check_table_3_1 run =
  let d, annots, u2, shots = figure1_setup () in
  let result op = shot_ids d (run op annots ~context:u2 ~candidates:shots) in
  Alcotest.(check (list string)) "select-narrow" [ "Intro" ]
    (result Op.Select_narrow);
  Alcotest.(check (list string)) "select-wide" [ "Intro"; "Interview" ]
    (result Op.Select_wide);
  Alcotest.(check (list string)) "reject-narrow" [ "Interview"; "Outro" ]
    (result Op.Reject_narrow);
  Alcotest.(check (list string)) "reject-wide" [ "Outro" ]
    (result Op.Reject_wide)

let test_table_3_1_spec () =
  check_table_3_1 (fun op annots ~context ~candidates ->
      Spec.join op annots ~context ~candidates)

let test_table_3_1_strategies () =
  List.iter
    (fun strategy ->
      check_table_3_1 (fun op annots ~context ~candidates ->
          Join.run_sequence op strategy annots ~context
            ~candidates:(Some candidates) ()))
    Config.all_strategies

(* ------------------------------------------------------------ *)
(* Catalog                                                       *)

let test_catalog_caches () =
  let cat = Catalog.create () in
  let d = Doc.parse ~name:"figure1" figure1 in
  let a1 = Catalog.annots cat Config.default d in
  let a2 = Catalog.annots cat Config.default d in
  Alcotest.(check bool) "same extraction object" true (a1 == a2);
  let other = Config.set_option Config.default ~name:"type" ~value:"xs:long" in
  let a3 = Catalog.annots cat other d in
  Alcotest.(check bool) "different config, different entry" true (a1 != a3);
  Catalog.invalidate cat d;
  let a4 = Catalog.annots cat Config.default d in
  Alcotest.(check bool) "invalidated" true (a1 != a4)

(* ------------------------------------------------------------ *)
(* Updates                                                       *)

let test_update_set_region () =
  let d = Doc.parse ~name:"figure1" figure1 in
  let cat = Catalog.create () in
  let engine_query () =
    (* The U2 track's narrow shots, via the core API with cached
       annotations. *)
    let annots = Catalog.annots cat Config.default d in
    let music =
      Array.of_list
        (List.filter
           (fun pre -> Doc.attribute d pre "artist" = Some "U2")
           (Array.to_list (Doc.elements_named d "music")))
    in
    shot_ids d
      (Join.run_sequence Op.Select_narrow Config.Loop_lifted annots
         ~context:music
         ~candidates:(Some (Doc.elements_named d "shot"))
         ())
  in
  Alcotest.(check (list string)) "before" [ "Intro" ] (engine_query ());
  (* Stretch the U2 track to cover the interview too. *)
  let u2 =
    List.find
      (fun pre -> Doc.attribute d pre "artist" = Some "U2")
      (Array.to_list (Doc.elements_named d "music"))
  in
  Standoff.Update.set_region cat Config.default d ~pre:u2
    (Standoff_interval.Region.make_int 0 64);
  Alcotest.(check (list string)) "after stretch" [ "Intro"; "Interview" ]
    (engine_query ());
  Alcotest.(check (option string)) "attribute rewritten" (Some "64")
    (Doc.attribute d u2 "end")

let test_update_rejects_bad_targets () =
  let d = Doc.parse ~name:"f" "<t><a start=\"0\" end=\"5\"/><plain/></t>" in
  let cat = Catalog.create () in
  let check_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  check_invalid "non-annotation" (fun () ->
      Standoff.Update.set_region cat Config.default d ~pre:3
        (Standoff_interval.Region.make_int 0 1));
  check_invalid "element representation" (fun () ->
      Standoff.Update.set_region cat
        (Config.with_region_elements Config.default)
        d ~pre:2
        (Standoff_interval.Region.make_int 0 1))

let test_update_shift () =
  let d =
    Doc.parse ~name:"s"
      "<t><a start=\"0\" end=\"9\"/><b start=\"10\" end=\"19\"/>\
       <c start=\"20\" end=\"29\"/></t>"
  in
  let cat = Catalog.create () in
  (* Insert 5 positions of BLOB content at position 10: b and c move. *)
  let moved =
    Standoff.Update.shift_annotations cat Config.default d ~from:10L ~by:5L
  in
  Alcotest.(check int) "two moved" 2 moved;
  Alcotest.(check (option string)) "a untouched" (Some "9")
    (Doc.attribute d 2 "end");
  Alcotest.(check (option string)) "b start" (Some "15")
    (Doc.attribute d 3 "start");
  Alcotest.(check (option string)) "c end" (Some "34")
    (Doc.attribute d 4 "end");
  (* Negative shift past zero is refused. *)
  Alcotest.(check bool) "negative refused" true
    (match
       Standoff.Update.shift_annotations cat Config.default d ~from:0L ~by:(-100L)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A failed shift must leave no trace: the shift validates every
   annotation before rewriting any row, so a mid-batch refusal cannot
   leave earlier annotations moved with no invalidation — which would
   let generation-stamped caches serve pre-update answers over a
   mutated store. *)
let test_update_shift_failure_is_atomic () =
  let coll = Standoff_store.Collection.create () in
  ignore
    (Standoff_store.Collection.load_string coll ~name:"s.xml"
       "<t><a start=\"10\" end=\"19\"/><b start=\"0\" end=\"9\"/></t>");
  let eng = Engine.create coll in
  let d =
    Standoff_store.Collection.doc coll
      (Option.get (Standoff_store.Collection.doc_id_of_name coll "s.xml"))
  in
  let q = "count(doc(\"s.xml\")//t/select-wide::a)" in
  let run () = (Engine.run eng q).Engine.serialized in
  let before = run () in
  let v0 = Catalog.version (Engine.catalog eng) in
  (* Shifting everything from 0 by -5 moves <a> (10 -> 5) fine but
     would drive <b> negative.  In document order <a> precedes <b>, so
     a single-pass shift has already rewritten <a> when it refuses. *)
  Alcotest.(check bool) "shift refused" true
    (match
       Engine.shift_annotations eng Config.default d ~from:0L ~by:(-5L)
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check (option string)) "a untouched after failed shift"
    (Some "10")
    (Doc.attribute d 2 "start");
  Alcotest.(check (option string)) "b untouched after failed shift"
    (Some "0")
    (Doc.attribute d 3 "start");
  Alcotest.(check int) "no invalidation for a no-op" v0
    (Catalog.version (Engine.catalog eng));
  Alcotest.(check string) "queries still answer the pre-shift state"
    before (run ())

(* ------------------------------------------------------------ *)
(* Agreement on random documents                                 *)

(* Build a flat annotation document: in attribute mode each <ann> has a
   single region; in element mode each has 1-3 region children. *)
let build_attr_doc regions =
  let body =
    List.map
      (fun (s, e) -> Printf.sprintf "<ann start=\"%d\" end=\"%d\"/>" s e)
      regions
    |> String.concat ""
  in
  Doc.parse ~name:"rand" ("<t>" ^ body ^ "</t>")

let build_region_doc areas =
  let body =
    List.map
      (fun regs ->
        let inner =
          List.map
            (fun (s, e) ->
              Printf.sprintf
                "<region><start>%d</start><end>%d</end></region>" s e)
            regs
          |> String.concat ""
        in
        "<ann>" ^ inner ^ "</ann>")
      areas
    |> String.concat ""
  in
  Doc.parse ~name:"rand" ("<t>" ^ body ^ "</t>")

let gen_region =
  QCheck.Gen.(
    map2
      (fun s w -> (s, s + w))
      (int_bound 60) (int_bound 25))

let gen_attr_case =
  QCheck.Gen.(
    triple
      (list_size (1 -- 14) gen_region)
      (list_size (0 -- 8) (int_bound 20))
      (list_size (0 -- 8) (int_bound 20)))

let print_attr_case (regions, ctx, cand) =
  Printf.sprintf "regions=%s ctx=%s cand=%s"
    (String.concat ";"
       (List.map (fun (s, e) -> Printf.sprintf "[%d,%d]" s e) regions))
    (String.concat "," (List.map string_of_int ctx))
    (String.concat "," (List.map string_of_int cand))

let subset_pres annots picks =
  let n = Array.length annots.Annots.ids in
  if n = 0 then [||]
  else
    Array.of_list
      (List.sort_uniq compare
         (List.map (fun p -> annots.Annots.ids.(p mod n)) picks))

let agreement_property ~config ~doc_of_case (case, ctx_picks, cand_picks) =
  let d = doc_of_case case in
  let annots = Annots.extract config d in
  let context = subset_pres annots ctx_picks in
  let candidates = subset_pres annots cand_picks in
  List.for_all
    (fun op ->
      let expected = Spec.join op annots ~context ~candidates in
      List.for_all
        (fun strategy ->
          let got =
            Join.run_sequence op strategy annots ~context
              ~candidates:(Some candidates) ()
          in
          got = expected)
        Config.all_strategies)
    Op.all

let qcheck_agreement_attr =
  QCheck.Test.make
    ~name:"all strategies = spec, all 4 ops (attribute representation)"
    ~count:400
    (QCheck.make ~print:print_attr_case gen_attr_case)
    (agreement_property ~config:Config.default ~doc_of_case:build_attr_doc)

let gen_multi_case =
  QCheck.Gen.(
    triple
      (list_size (1 -- 8) (list_size (1 -- 3) gen_region))
      (list_size (0 -- 6) (int_bound 20))
      (list_size (0 -- 6) (int_bound 20)))

let print_multi_case (areas, ctx, cand) =
  Printf.sprintf "areas=%s ctx=%s cand=%s"
    (String.concat "|"
       (List.map
          (fun regs ->
            String.concat ";"
              (List.map (fun (s, e) -> Printf.sprintf "[%d,%d]" s e) regs))
          areas))
    (String.concat "," (List.map string_of_int ctx))
    (String.concat "," (List.map string_of_int cand))

let qcheck_agreement_multi =
  QCheck.Test.make
    ~name:"all strategies = spec, all 4 ops (element representation)"
    ~count:400
    (QCheck.make ~print:print_multi_case gen_multi_case)
    (agreement_property
       ~config:(Config.with_region_elements Config.default)
       ~doc_of_case:build_region_doc)

(* Loop-lifted agreement: the lifted result per iteration must equal the
   per-sequence spec result of that iteration, including empty-context
   iterations for the reject operators. *)
let gen_lifted_case =
  QCheck.Gen.(
    triple
      (list_size (1 -- 12) gen_region)
      (list_size (0 -- 12) (pair (int_bound 4) (int_bound 15)))
      (list_size (0 -- 8) (int_bound 15)))

let print_lifted_case (regions, ctx, cand) =
  Printf.sprintf "regions=%s ctx=%s cand=%s"
    (String.concat ";"
       (List.map (fun (s, e) -> Printf.sprintf "[%d,%d]" s e) regions))
    (String.concat ","
       (List.map (fun (i, p) -> Printf.sprintf "%d:%d" i p) ctx))
    (String.concat "," (List.map string_of_int cand))

let qcheck_lifted_agreement =
  QCheck.Test.make
    ~name:"run_lifted (loop-lifted) = per-iteration spec" ~count:400
    (QCheck.make ~print:print_lifted_case gen_lifted_case)
    (fun (regions, ctx_rows, cand_picks) ->
      let d = build_attr_doc regions in
      let annots = Annots.extract Config.default d in
      let n = Array.length annots.Annots.ids in
      if n = 0 then true
      else begin
        let loop = [| 0; 1; 2; 3; 4 |] in
        let rows =
          List.sort_uniq compare
            (List.map
               (fun (it, p) -> (it, annots.Annots.ids.(p mod n)))
               ctx_rows)
        in
        let context_iters = Array.of_list (List.map fst rows) in
        let context_pres = Array.of_list (List.map snd rows) in
        let candidates = subset_pres annots cand_picks in
        List.for_all
          (fun op ->
            let iters, pres =
              Join.run_lifted op Config.Loop_lifted annots ~loop ~context_iters
                ~context_pres ~candidates:(Join.Pres candidates) ()
            in
            Array.for_all
              (fun it ->
                let per_iter_context =
                  rows
                  |> List.filter (fun (i, _) -> i = it)
                  |> List.map snd |> Array.of_list
                in
                let expected =
                  Spec.join op annots ~context:per_iter_context ~candidates
                in
                let got =
                  Array.to_list
                    (Array.of_list
                       (List.filteri
                          (fun r _ -> iters.(r) = it)
                          (Array.to_list pres)))
                in
                got = Array.to_list expected)
              loop)
          Op.all
      end)

(* Like [build_attr_doc], but the annotations cycle through three
   element names, and one more element of the first name carries no
   region: per-name candidate sets then differ from each other and from
   the annotation set. *)
let element_names = [ "n0"; "n1"; "n2" ]

let build_named_doc regions =
  let body =
    List.mapi
      (fun i (s, e) ->
        Printf.sprintf "<n%d start=\"%d\" end=\"%d\"/>" (i mod 3) s e)
      regions
    |> String.concat ""
  in
  Doc.parse ~name:"rand" ("<t><n0/>" ^ body ^ "</t>")

(* The per-name index (built once from the candidate side, the
   loop-lifted fast path) must equal the paper's full-index-scan
   intersection used by the per-iteration strategies, for every name,
   and list exactly the name's annotations. *)
let qcheck_candidate_index_paths_agree =
  QCheck.Test.make
    ~name:"candidate_index = candidate_index_scan" ~count:300
    (QCheck.make ~print:print_attr_case gen_attr_case)
    (fun (regions, _, _) ->
      let d = build_named_doc regions in
      let annots = Annots.extract Config.default d in
      List.for_all
        (fun name ->
          let candidates = Doc.elements_named d name in
          dump_index (Annots.candidate_index annots ~name:(Some name))
          = dump_index
              (Annots.candidate_index_scan annots ~candidates:(Some candidates))
          && Annots.candidate_ids annots ~name:(Some name)
             = Annots.restrict_ids annots ~candidates)
        ("absent" :: element_names))

(* Region updates patch the cached tables forward.  Starting from a
   warm catalogue (full index plus the per-name indexes of two of the
   three names), a random sequence of [set_region]s — moves to the
   first and the last row, ties on start, empty regions, no-op moves
   and arbitrary moves — must leave the cached table equal to a fresh
   extraction of the mutated document after every move, as judged by
   [check cached fresh]. *)
type move_kind = To_first | To_last | Tie_start | Point | Same | Anywhere

let gen_move_kind =
  QCheck.Gen.oneofl [ To_first; To_last; Tie_start; Point; Same; Anywhere ]

let gen_move_case =
  QCheck.Gen.(
    pair
      (list_size (1 -- 14) gen_region)
      (list_size (1 -- 12)
         (triple (int_bound 20) gen_move_kind (pair (int_bound 20) gen_region))))

let print_move_case (regions, moves) =
  let kind = function
    | To_first -> "first" | To_last -> "last" | Tie_start -> "tie"
    | Point -> "point" | Same -> "same" | Anywhere -> "any"
  in
  Printf.sprintf "%s moves=%s"
    (print_attr_case (regions, [], []))
    (String.concat ";"
       (List.map
          (fun (p, k, (o, (s, e))) ->
            Printf.sprintf "%d:%s:%d:[%d,%d]" p (kind k) o s e)
          moves))

let per_name a =
  List.map
    (fun name -> dump_index (Annots.candidate_index a ~name:(Some name)))
    element_names

let moves_keep ~check (regions, moves) =
  let d = build_named_doc regions in
  let cat = Catalog.create () in
  let warm = Catalog.annots cat Config.default d in
  List.iter
    (fun name -> ignore (Annots.candidate_index warm ~name:(Some name)))
    [ "n0"; "n1" ];
  let n = Array.length warm.Annots.ids in
  let extent slot = Area.extent warm.Annots.areas.(slot) in
  List.for_all
    (fun (pick, kind, (other, (s, e))) ->
      let slot = pick mod n in
      let pre = warm.Annots.ids.(slot) in
      let region =
        match kind with
        | To_first -> Region.make_int 0 200
        | To_last -> Region.make_int 200 (200 + e - s)
        | Tie_start ->
            let st = Region.start_pos (extent (other mod n)) in
            Region.make st (Int64.add st (Int64.of_int (e - s)))
        | Point -> Region.make_int s s
        | Same -> extent slot
        | Anywhere -> Region.make_int s e
      in
      Standoff.Update.set_region cat Config.default d ~pre region;
      let cached = Catalog.annots cat Config.default d in
      cached == warm && check d cached (Annots.extract Config.default d))
    moves

let qcheck_set_region_patches_index =
  QCheck.Test.make ~name:"set_region patch = fresh extraction" ~count:300
    (QCheck.make ~print:print_move_case gen_move_case)
    (moves_keep ~check:(fun _ cached fresh ->
         cached.Annots.ids = fresh.Annots.ids
         && cached.Annots.areas = fresh.Annots.areas
         && dump_index cached.Annots.index = dump_index fresh.Annots.index
         && per_name cached = per_name fresh))

(* Each per-name index, patched forward or built after the moves,
   equals the restriction of a fresh extraction's full index to the
   name's elements. *)
let qcheck_set_region_per_name_restrict =
  QCheck.Test.make ~name:"set_region per-name index = restrict of fresh"
    ~count:300
    (QCheck.make ~print:print_move_case gen_move_case)
    (moves_keep ~check:(fun d cached fresh ->
         per_name cached
         = List.map
             (fun name ->
               dump_index
                 (Region_index.restrict fresh.Annots.index
                    ~ids:(Doc.elements_named d name)))
             element_names))

(* After [Engine.set_region] the DataGuide is carried forward — the
   probe at the new generation returns the very same guide — and every
   query answers as a fresh engine loaded from the mutated bytes. *)
let test_set_region_keeps_guide () =
  let coll = Standoff_store.Collection.create () in
  ignore (Standoff_store.Collection.load_string coll ~name:"figure1.xml" figure1);
  let eng = Engine.create ~jobs:1 coll in
  let d =
    Standoff_store.Collection.doc coll
      (Option.get (Standoff_store.Collection.doc_id_of_name coll "figure1.xml"))
  in
  let queries =
    [
      {|for $s in doc("figure1.xml")//music[@artist = "U2"]/select-wide::shot return string($s/@id)|};
      {|for $m in doc("figure1.xml")/sample/audio/music return count($m/select-narrow::shot)|};
      {|for $s in doc("figure1.xml")//shot return string-join(for $x in $s/reject-wide::* return name($x), ",")|};
      {|count(doc("figure1.xml")/sample/video/shot/select-narrow::music)|};
    ]
  in
  let answers eng =
    List.concat_map
      (fun q ->
        List.map
          (fun strategy ->
            (Engine.run eng ~strategy q)
              .Engine.serialized)
          Config.all_strategies)
      queries
  in
  ignore (answers eng);
  let cat = Engine.catalog eng in
  let guide () =
    Standoff_store.Dataguide.get
      ~generation:(Catalog.generation cat "figure1.xml")
      d
  in
  let g0 = guide () in
  let u2 =
    List.find
      (fun pre -> Doc.attribute d pre "artist" = Some "U2")
      (Array.to_list (Doc.elements_named d "music"))
  in
  List.iter
    (fun (s, e) ->
      Engine.set_region eng Config.default d ~pre:u2 (Region.make_int s e);
      Alcotest.(check bool)
        (Printf.sprintf "guide carried to [%d,%d]" s e)
        true
        (guide () == g0);
      let fresh_coll = Standoff_store.Collection.create () in
      ignore
        (Standoff_store.Collection.load_string fresh_coll ~name:"figure1.xml"
           (Standoff_xml.Serializer.node_to_string (Doc.to_dom d (Doc.root d))));
      Alcotest.(check (list string))
        (Printf.sprintf "answers at [%d,%d] = fresh engine" s e)
        (answers (Engine.create ~jobs:1 fresh_coll))
        (answers eng))
    [ (0, 64); (70, 70); (8, 8); (0, 94); (0, 31) ]

(* Udf_no_candidates applies the node test after the join; with the
   candidate set equal to all annotations the two UDF variants must
   coincide. *)
let qcheck_udf_variants_coincide =
  QCheck.Test.make ~name:"UDF variants coincide on full candidate set"
    ~count:200
    (QCheck.make ~print:print_attr_case gen_attr_case)
    (fun (regions, ctx_picks, _) ->
      let d = build_attr_doc regions in
      let annots = Annots.extract Config.default d in
      let context = subset_pres annots ctx_picks in
      List.for_all
        (fun op ->
          Join.run_sequence op Config.Udf_no_candidates annots ~context
            ~candidates:None ()
          = Join.run_sequence op Config.Udf_candidates annots ~context
              ~candidates:(Some annots.Annots.ids) ())
        Op.all)

(* Select/reject partition the candidate annotations. *)
let qcheck_select_reject_partition =
  QCheck.Test.make ~name:"select + reject partition the candidates"
    ~count:300
    (QCheck.make ~print:print_attr_case gen_attr_case)
    (fun (regions, ctx_picks, cand_picks) ->
      let d = build_attr_doc regions in
      let annots = Annots.extract Config.default d in
      let context = subset_pres annots ctx_picks in
      let candidates = subset_pres annots cand_picks in
      let run op =
        Array.to_list
          (Join.run_sequence op Config.Loop_lifted annots ~context
             ~candidates:(Some candidates) ())
      in
      let merge a b = List.sort_uniq compare (a @ b) in
      merge (run Op.Select_narrow) (run Op.Reject_narrow)
      = Array.to_list candidates
      && merge (run Op.Select_wide) (run Op.Reject_wide)
         = Array.to_list candidates
      &&
      (* narrow results are a subset of wide results *)
      List.for_all
        (fun p -> List.mem p (run Op.Select_wide))
        (run Op.Select_narrow))

let () =
  Alcotest.run "standoff"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "declare option" `Quick test_config_options;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "extract",
        [
          Alcotest.test_case "invalid region" `Quick test_extract_attributes;
          Alcotest.test_case "nested unrestricted" `Quick
            test_extract_nested_unrestricted;
          Alcotest.test_case "partial attributes" `Quick
            test_extract_partial_attrs_rejected;
          Alcotest.test_case "non-integer" `Quick test_extract_non_integer_rejected;
          Alcotest.test_case "renamed attributes" `Quick test_extract_renamed;
          Alcotest.test_case "region elements" `Quick test_extract_region_elements;
          Alcotest.test_case "representation isolation" `Quick
            test_extract_attr_mode_ignores_region_elements;
        ] );
      ( "region-index",
        [
          Alcotest.test_case "clustering" `Quick test_index_clustering;
          Alcotest.test_case "restrict" `Quick test_index_restrict;
          Alcotest.test_case "per-name indexes built once" `Quick
            test_per_name_index_built_once;
          Alcotest.test_case "restrict_ids" `Quick test_restrict_ids;
          Alcotest.test_case "input order is invisible" `Quick
            test_index_order_independent;
        ] );
      ( "table-3.1",
        [
          Alcotest.test_case "spec" `Quick test_table_3_1_spec;
          Alcotest.test_case "all strategies" `Quick test_table_3_1_strategies;
        ] );
      ( "catalog",
        [ Alcotest.test_case "caching" `Quick test_catalog_caches ] );
      ( "update",
        [
          Alcotest.test_case "set_region" `Quick test_update_set_region;
          Alcotest.test_case "bad targets" `Quick test_update_rejects_bad_targets;
          Alcotest.test_case "shift" `Quick test_update_shift;
          Alcotest.test_case "failed shift is atomic" `Quick
            test_update_shift_failure_is_atomic;
          Alcotest.test_case "set_region keeps the DataGuide" `Quick
            test_set_region_keeps_guide;
          QCheck_alcotest.to_alcotest qcheck_set_region_patches_index;
          QCheck_alcotest.to_alcotest qcheck_set_region_per_name_restrict;
        ] );
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest qcheck_agreement_attr;
          QCheck_alcotest.to_alcotest qcheck_agreement_multi;
          QCheck_alcotest.to_alcotest qcheck_lifted_agreement;
          QCheck_alcotest.to_alcotest qcheck_candidate_index_paths_agree;
          QCheck_alcotest.to_alcotest qcheck_udf_variants_coincide;
          QCheck_alcotest.to_alcotest qcheck_select_reject_partition;
        ] );
    ]
