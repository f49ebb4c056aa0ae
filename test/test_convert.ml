(* Inline ⇄ stand-off conversion: round-trip byte identity, layered
   output, overlap splitting, tie-breaking, containment consistency
   with the inline descendant axis, and bulk ingestion through the
   engine. *)

module Dom = Standoff_xml.Dom
module Parser = Standoff_xml.Parser
module Serializer = Standoff_xml.Serializer
module Convert = Standoff_convert.Convert
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Catalog = Standoff.Catalog
module Engine = Standoff_xquery.Engine
module Wal = Standoff_store.Wal
module Durable = Standoff.Durable

let canon dom = Serializer.to_string dom

let roundtrip dom =
  let conv = Convert.to_standoff dom in
  Convert.to_inline ~blob:conv.Convert.blob [ conv.Convert.doc ]

(* ------------------------------------------------------------ *)
(* Hand-crafted round-trip                                       *)

let tei_snippet =
  "<TEI><teiHeader><title>A tiny sample</title></teiHeader><body><p \
   n=\"1\">The <w pos=\"adj\">quick</w> fox<!-- really a dog --> \
   jumps.</p><p n=\"2\"><w>Over</w><pb/>and out.</p><?page 2?></body></TEI>"

let test_tei_roundtrip () =
  let dom = Parser.parse_string tei_snippet in
  let conv = Convert.to_standoff dom in
  (* every element and every comment/PI wrapper owns one separator *)
  let rec count_nodes n = function
    | Dom.Element e ->
        List.fold_left count_nodes (n + 1) e.Dom.children
    | Dom.Comment _ | Dom.Pi _ -> n + 1
    | Dom.Text _ -> n
  in
  let seps =
    String.fold_left
      (fun n c -> if c = '\n' then n + 1 else n)
      0 conv.Convert.blob
  in
  Alcotest.(check int)
    "one separator per element and comment/PI"
    (count_nodes 0 (Dom.Element dom.Dom.root))
    seps;
  Alcotest.(check string) "round-trip is byte-identical" (canon dom)
    (canon (Convert.to_inline ~blob:conv.Convert.blob [ conv.Convert.doc ]))

let test_collisions_rejected () =
  let dom = Parser.parse_string "<a><b start=\"3\"/></a>" in
  Alcotest.check_raises "extent attribute collision"
    (Invalid_argument
       "Convert.to_standoff: element <b> already carries a \"start\" \
        attribute") (fun () -> ignore (Convert.to_standoff dom));
  let dom = Parser.parse_string "<a><so-node/></a>" in
  Alcotest.check_raises "node-wrapper tag collision"
    (Invalid_argument
       "Convert.to_standoff: element named \"so-node\" collides with the \
        node wrapper") (fun () -> ignore (Convert.to_standoff dom));
  (* both are fine under the historical On_empty policy, which neither
     wraps nodes nor needs reconstructible extents *)
  ignore
    (Convert.to_standoff ~start_name:"s" ~end_name:"e"
       ~separator:Convert.On_empty
       (Parser.parse_string "<a><so-node start=\"3\"/></a>"))

(* ------------------------------------------------------------ *)
(* Random round-trips (generators as in test_persist)            *)

let gen_tree =
  let open QCheck.Gen in
  let rec node depth =
    if depth = 0 then map (fun s -> Dom.text s) (oneofl [ "x"; "y&z"; " " ])
    else
      frequency
        [
          (2, map (fun s -> Dom.text s) (oneofl [ "t"; "<>&" ]));
          (1, return (Dom.Comment "c"));
          ( 4,
            map3
              (fun tag attrs children -> Dom.element ~attrs tag children)
              (oneofl [ "a"; "b"; "c" ])
              (map
                 (fun vs -> List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) vs)
                 (list_size (0 -- 2) (oneofl [ "1"; "two" ])))
              (list_size (0 -- 3) (node (depth - 1))) );
        ]
  in
  map
    (fun children -> Dom.document (Dom.element "root" children))
    (list_size (0 -- 4) (node 3))

let odd_names =
  [ "a"; "ns:b"; "_x"; "\xc3\xa9"; "\xe5\xb1\x9e\xe6\x80\xa7"; "a-b.c"; "xml:lang"; "A.B" ]

let odd_values =
  [ ""; " "; "\t"; "\xc3\xbc"; "\xf0\x9f\x98\x80"; "line\nbreak"; "&<>\"'"; "\x00\x01" ]

let gen_hostile_tree =
  let open QCheck.Gen in
  let name = oneofl odd_names in
  let value = oneofl odd_values in
  let attrs =
    map
      (fun kvs -> List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs)
      (list_size (0 -- 3) (pair name value))
  in
  let rec node depth =
    if depth = 0 then map Dom.text (oneofl [ "t"; "\xe2\x98\x83"; " " ])
    else
      frequency
        [
          (1, map Dom.text (oneofl [ "x"; "\xc3\xa9t\xc3\xa9" ]));
          ( 4,
            map3
              (fun tag attrs children -> Dom.element ~attrs tag children)
              name attrs
              (list_size (0 -- 2) (node (depth - 1))) );
        ]
  in
  frequency
    [
      (1, return (Dom.document (Dom.element "root" [])));
      ( 6,
        map2
          (fun attrs children ->
            Dom.document (Dom.element ~attrs "root" children))
          attrs
          (list_size (0 -- 3) (node 2)) );
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~name:"stand-off round-trip on random documents"
    ~count:300
    (QCheck.make ~print:canon gen_tree)
    (fun dom -> String.equal (canon dom) (canon (roundtrip dom)))

let qcheck_hostile_roundtrip =
  QCheck.Test.make ~name:"stand-off round-trip on hostile documents"
    ~count:300
    (QCheck.make ~print:canon gen_hostile_tree)
    (fun dom -> String.equal (canon dom) (canon (roundtrip dom)))

(* select-narrow containment over the converted extents answers
   exactly the descendant axis of the inline original: Per_element
   separators make extents strictly nested, so region containment and
   tree descent coincide. *)
let qcheck_narrow_matches_descendant =
  QCheck.Test.make ~name:"select-narrow agrees with inline descendant"
    ~count:60
    (QCheck.make ~print:canon gen_tree)
    (fun dom ->
      let conv = Convert.to_standoff dom in
      let coll = Collection.create () in
      ignore (Collection.add coll (Doc.of_dom ~name:"in.xml" dom));
      ignore (Collection.add coll (Doc.of_dom ~name:"so.xml" conv.Convert.doc));
      let eng = Engine.create coll in
      let run q = (Engine.run eng q).Engine.serialized in
      let names = [ "a"; "b"; "c" ] in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              let narrow =
                run
                  (Printf.sprintf
                     "count(doc(\"so.xml\")//%s/select-narrow::%s)" x y)
              in
              let inline =
                if String.equal x y then
                  (* every region contains itself, so the deduplicated
                     narrow join over x = x is just the x nodes *)
                  run (Printf.sprintf "count(doc(\"in.xml\")//%s)" x)
                else
                  run (Printf.sprintf "count(doc(\"in.xml\")//%s//%s)" x y)
              in
              String.equal narrow inline)
            names)
        names)

(* ------------------------------------------------------------ *)
(* Layers                                                        *)

let test_layers () =
  let dom =
    Parser.parse_string
      "<body><p><w>one</w> <w>two</w></p><p><w>three</w></p></body>"
  in
  let conv =
    Convert.to_standoff
      ~layers:[ ("words", [ "w" ]); ("paras", [ "p" ]) ]
      dom
  in
  let layer name = List.assoc name conv.Convert.layers in
  let count_children d = List.length d.Dom.root.Dom.children in
  Alcotest.(check int) "three word annotations" 3 (count_children (layer "words"));
  Alcotest.(check int) "two paragraph annotations" 2 (count_children (layer "paras"));
  List.iter
    (function
      | Dom.Element e ->
          Alcotest.(check string) "layer element name" "w" e.Dom.tag;
          Alcotest.(check (list string)) "flat: children dropped" []
            (List.map (fun _ -> "child") e.Dom.children);
          Alcotest.(check bool) "extents kept" true
            (Dom.attr e "start" <> None && Dom.attr e "end" <> None)
      | _ -> Alcotest.fail "layer child is not an element")
    (layer "words").Dom.root.Dom.children;
  (* a single layer re-inlines against the shared blob on its own *)
  let words_only =
    Convert.to_inline ~blob:conv.Convert.blob [ layer "words" ]
  in
  Alcotest.(check string) "synthetic root" "text" words_only.Dom.root.Dom.tag;
  let texts =
    List.filter_map
      (function
        | Dom.Element e when String.equal e.Dom.tag "w" ->
            Some (Dom.text_content (Dom.Element e))
        | _ -> None)
      words_only.Dom.root.Dom.children
  in
  Alcotest.(check (list string)) "word contents survive alone"
    [ "one"; "two"; "three" ] texts

(* ------------------------------------------------------------ *)
(* Placement semantics on hand-built annotations                 *)

let ann name s e =
  Dom.element
    ~attrs:[ ("start", string_of_int s); ("end", string_of_int e) ]
    name []

let anns_doc nodes = Dom.document (Dom.element "anns" nodes)

let test_overlap_split () =
  (* y crosses x's right boundary: it is split there into two y tags *)
  let inlined =
    Convert.to_inline ~consume_separator:false ~root_name:"r" ~blob:"abcdefgh"
      [ anns_doc [ ann "x" 0 4; ann "y" 3 7 ] ]
  in
  let expected =
    Dom.document
      (Dom.element "r"
         [
           Dom.element "x"
             [ Dom.text "abc"; Dom.element "y" [ Dom.text "de" ] ];
           Dom.element "y" [ Dom.text "fgh" ];
         ])
  in
  Alcotest.(check string) "split at the open annotation's boundary"
    (canon expected) (canon inlined)

let test_tiebreak_deterministic () =
  (* identical extents: input order decides nesting *)
  let nested order =
    canon
      (Convert.to_inline ~consume_separator:false ~root_name:"r" ~blob:"abcd"
         [ anns_doc order ])
  in
  Alcotest.(check string) "first listed wraps the second"
    (canon
       (Dom.document
          (Dom.element "one" [ Dom.element "two" [ Dom.text "abcd" ] ])))
    (nested [ ann "one" 0 3; ann "two" 0 3 ]);
  Alcotest.(check string) "swapped input, swapped nesting"
    (canon
       (Dom.document
          (Dom.element "two" [ Dom.element "one" [ Dom.text "abcd" ] ])))
    (nested [ ann "two" 0 3; ann "one" 0 3 ]);
  (* shared start, different ends: the longer one opens first no
     matter how the input lists them — and, covering the whole blob
     alone, it becomes the root without a synthetic wrapper *)
  let expect_outer =
    canon
      (Dom.document
         (Dom.element "long"
            [ Dom.element "short" [ Dom.text "ab" ]; Dom.text "cd" ]))
  in
  Alcotest.(check string) "longest-first at a shared start" expect_outer
    (nested [ ann "short" 0 1; ann "long" 0 3 ])

let test_bad_extents_rejected () =
  let check msg nodes =
    match
      Convert.to_inline ~blob:"abcd" [ anns_doc nodes ]
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  check "start > end" [ ann "x" 3 1 ];
  check "outside the blob" [ ann "x" 0 9 ];
  check "negative start" [ ann "x" (-1) 2 ];
  check "one-sided extent"
    [ Dom.element ~attrs:[ ("start", "0") ] "x" [] ];
  check "non-integer extent"
    [ Dom.element ~attrs:[ ("start", "zero"); ("end", "3") ] "x" [] ]

(* ------------------------------------------------------------ *)
(* Bulk ingestion through the engine                             *)

let converted name xml =
  let conv = Convert.to_standoff (Parser.parse_string xml) in
  (Doc.of_dom ~name conv.Convert.doc, (name ^ ".blob", conv.Convert.blob))

(* [f eng logged] over an engine whose durable store, in a scratch
   directory, was seeded with [coll]; [logged ()] reads back every
   record of the store's WAL. *)
let with_durable_engine coll f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "standoff-convert-test-%d-%d" (Unix.getpid ())
         (Random.bits ()))
  in
  let d, _ = Durable.open_dir ~seed:(fun () -> coll) dir in
  let logged () =
    List.map snd (Wal.replay (Filename.concat dir "wal.log")).Wal.r_ops
  in
  Fun.protect
    ~finally:(fun () ->
      Durable.close d;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f (Engine.create ~durable:d coll) logged)

let test_engine_ingest () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"base.xml" "<a><b/></a>");
  with_durable_engine coll @@ fun eng logged ->
  let d1, b1 = converted "d1.xml" "<p><w>alpha</w></p>" in
  let d2, b2 = converted "d2.xml" "<p><w>beta</w> and <w>gamma</w></p>" in
  let v0 = Catalog.version (Engine.catalog eng) in
  let n = Engine.ingest eng [ d1; d2 ] [ b1; b2 ] in
  Alcotest.(check int) "two documents ingested" 2 n;
  Alcotest.(check int) "one version bump for the whole batch" (v0 + 1)
    (Catalog.version (Engine.catalog eng));
  (match logged () with
  | [ Wal.Ingest { docs; blobs } ] ->
      Alcotest.(check (list string)) "one batched WAL record, both docs"
        [ "d1.xml"; "d2.xml" ] (List.map fst docs);
      Alcotest.(check (list string)) "both blobs"
        [ "d1.xml.blob"; "d2.xml.blob" ] (List.map fst blobs)
  | _ -> Alcotest.fail "expected exactly one Ingest record");
  Alcotest.(check string) "ingested documents answer queries" "2"
    (Engine.run eng
       "count(doc(\"d2.xml\")//p/select-narrow::w)")
      .Engine.serialized

let test_engine_ingest_conflict_atomic () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"base.xml" "<a/>");
  with_durable_engine coll @@ fun eng logged ->
  let d1, b1 = converted "new.xml" "<p>x</p>" in
  let dup, bdup = converted "base.xml" "<p>y</p>" in
  (* a conflicting name anywhere in the batch rejects the whole batch
     before anything is mutated *)
  (match Engine.ingest eng [ d1; dup ] [ b1; bdup ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conflicting batch must raise");
  Alcotest.(check int) "nothing ingested" 1 (Collection.doc_count coll);
  Alcotest.(check int) "nothing logged" 0 (List.length (logged ()));
  (* in-batch duplicates reject too *)
  (match Engine.ingest eng [ d1; d1 ] [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "in-batch duplicate must raise");
  Alcotest.(check int) "still nothing ingested" 1 (Collection.doc_count coll)

let () =
  Alcotest.run "convert"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "tei snippet" `Quick test_tei_roundtrip;
          Alcotest.test_case "collisions rejected" `Quick
            test_collisions_rejected;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_hostile_roundtrip;
        ] );
      ( "containment",
        [ QCheck_alcotest.to_alcotest qcheck_narrow_matches_descendant ] );
      ( "layers", [ Alcotest.test_case "projection" `Quick test_layers ] );
      ( "placement",
        [
          Alcotest.test_case "overlap split" `Quick test_overlap_split;
          Alcotest.test_case "deterministic tie-break" `Quick
            test_tiebreak_deterministic;
          Alcotest.test_case "bad extents rejected" `Quick
            test_bad_extents_rejected;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "batched" `Quick test_engine_ingest;
          Alcotest.test_case "conflicts are atomic" `Quick
            test_engine_ingest_conflict_atomic;
        ] );
    ]
