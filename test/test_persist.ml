(* Persistence layer tests: codec primitives, document and collection
   roundtrips, corruption detection, and end-to-end query equivalence
   after reload. *)

module Codec = Standoff_util.Codec
module Dom = Standoff_xml.Dom
module Doc = Standoff_store.Doc
module Blob = Standoff_store.Blob
module Collection = Standoff_store.Collection
module Persist = Standoff_store.Persist
module Engine = Standoff_xquery.Engine

(* ------------------------------------------------------------ *)
(* Codec                                                         *)

let test_codec_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.byte w 200;
  Codec.Writer.varint w 0;
  Codec.Writer.varint w (-1);
  Codec.Writer.varint w max_int;
  Codec.Writer.varint w min_int;
  Codec.Writer.varint64 w Int64.max_int;
  Codec.Writer.varint64 w Int64.min_int;
  Codec.Writer.string w "";
  Codec.Writer.string w "hello \x00 world";
  Codec.Writer.int_array w [| 1; -2; 3 |];
  Codec.Writer.string_array w [| "a"; ""; "b" |];
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check int) "byte" 200 (Codec.Reader.byte r);
  Alcotest.(check int) "zero" 0 (Codec.Reader.varint r);
  Alcotest.(check int) "minus one" (-1) (Codec.Reader.varint r);
  Alcotest.(check int) "max_int" max_int (Codec.Reader.varint r);
  Alcotest.(check int) "min_int" min_int (Codec.Reader.varint r);
  Alcotest.(check int64) "max64" Int64.max_int (Codec.Reader.varint64 r);
  Alcotest.(check int64) "min64" Int64.min_int (Codec.Reader.varint64 r);
  Alcotest.(check string) "empty" "" (Codec.Reader.string r);
  Alcotest.(check string) "string" "hello \x00 world" (Codec.Reader.string r);
  Alcotest.(check (array int)) "ints" [| 1; -2; 3 |] (Codec.Reader.int_array r);
  Alcotest.(check (array string)) "strings" [| "a"; ""; "b" |]
    (Codec.Reader.string_array r);
  Alcotest.(check bool) "consumed" true (Codec.Reader.at_end r)

let test_codec_truncation () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello";
  let s = Codec.Writer.contents w in
  let truncated = String.sub s 0 (String.length s - 2) in
  Alcotest.(check bool) "raises" true
    (match Codec.Reader.string (Codec.Reader.create truncated) with
    | exception Codec.Reader.Corrupt _ -> true
    | _ -> false)

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"varint64 roundtrip" ~count:1000
    QCheck.(map Int64.of_int int)
    (fun v ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint64 w v;
      Int64.equal v (Codec.Reader.varint64 (Codec.Reader.create (Codec.Writer.contents w))))

(* ------------------------------------------------------------ *)
(* Documents                                                     *)

let sample =
  "<site a=\"1\"><people><person id=\"p0\"><name>Alice &amp; co</name>\
   </person></people><!--note--><?pi data?></site>"

let test_doc_roundtrip () =
  let d = Doc.parse ~name:"sample.xml" sample in
  let d' = Persist.doc_of_string (Persist.doc_to_string d) in
  Doc.check_invariants d';
  Alcotest.(check string) "name kept" "sample.xml" d'.Doc.doc_name;
  Alcotest.(check bool) "same tree" true
    (Dom.equal_node (Doc.to_dom d (Doc.root d)) (Doc.to_dom d' (Doc.root d')));
  Alcotest.(check int) "same attrs" (Doc.attribute_count d)
    (Doc.attribute_count d')

let test_doc_file_roundtrip () =
  let d = Doc.parse ~name:"sample.xml" sample in
  let path = Filename.temp_file "standoff" ".sodb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save_doc d path;
      let d' = Persist.load_doc path in
      Alcotest.(check bool) "tree equal" true
        (Dom.equal_node (Doc.to_dom d (Doc.root d)) (Doc.to_dom d' (Doc.root d'))))

let test_corruption_detected () =
  let d = Doc.parse ~name:"s" sample in
  let s = Persist.doc_to_string d in
  let check_rejects label s =
    Alcotest.(check bool) label true
      (match Persist.doc_of_string s with
      | exception Persist.Corrupt _ -> true
      | _ -> false)
  in
  (* Flip a payload byte: checksum failure. *)
  let flipped = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xFF));
  check_rejects "bit flip" (Bytes.to_string flipped);
  (* Truncation. *)
  check_rejects "truncation" (String.sub s 0 (String.length s - 3));
  (* Wrong magic. *)
  check_rejects "bad magic" ("XXXX" ^ String.sub s 4 (String.length s - 4));
  (* Wrong container tag. *)
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"x" "<a/>");
  let coll_file = Filename.temp_file "standoff" ".sodb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove coll_file)
    (fun () ->
      Persist.save_collection coll coll_file;
      let ic = open_in_bin coll_file in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_rejects "tag mismatch" contents)

(* Random documents roundtrip through the binary format. *)
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

let qcheck_doc_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip on random documents" ~count:300
    (QCheck.make
       ~print:(fun dom -> Standoff_xml.Serializer.to_string dom)
       gen_tree)
    (fun dom ->
      let d = Doc.of_dom ~name:"r" dom in
      let d' = Persist.doc_of_string (Persist.doc_to_string d) in
      Dom.equal_node (Doc.to_dom d (Doc.root d)) (Doc.to_dom d' (Doc.root d')))

(* ------------------------------------------------------------ *)
(* Hostile shapes: empty documents, unicode and odd names, sparse
   name-pool ids                                                 *)

(* Attribute/element names and values the XML layer accepts but a
   format with hidden ASCII or density assumptions would mangle. *)
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
      (fun kvs ->
        (* XML wants attribute names unique per element. *)
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs)
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
      (* The empty document: a childless, attribute-less root. *)
      (1, return (Dom.document (Dom.element "root" [])));
      ( 6,
        map2
          (fun attrs children ->
            Dom.document (Dom.element ~attrs "root" children))
          attrs
          (list_size (0 -- 3) (node 2)) );
    ]

let qcheck_hostile_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip on hostile documents" ~count:300
    (QCheck.make
       ~print:(fun dom -> Standoff_xml.Serializer.to_string dom)
       gen_hostile_tree)
    (fun dom ->
      let d = Doc.of_dom ~name:"hostile \xc3\xa4.xml" dom in
      let d' = Persist.doc_of_string (Persist.doc_to_string d) in
      Doc.check_invariants d';
      d'.Doc.doc_name = d.Doc.doc_name
      && Doc.attribute_count d = Doc.attribute_count d'
      && Dom.equal_node (Doc.to_dom d (Doc.root d)) (Doc.to_dom d' (Doc.root d')))

(* Name-pool ids need not be dense: build a document whose pool has
   unused slots between the used ids (as an editor that deleted layers
   might leave behind) and require the persisted form to carry it. *)
let test_sparse_name_pool () =
  let d =
    Doc.parse ~name:"sparse.xml"
      "<a x=\"1\"><b y=\"2\"><c/></b><b/>text</a>"
  in
  let spread = 3 in
  let pool_size = Standoff_store.Name_pool.count d.Doc.names in
  let names' =
    Array.init
      ((pool_size * spread) + 1)
      (fun i ->
        if i mod spread = 0 && i / spread < pool_size then
          Standoff_store.Name_pool.name d.Doc.names (i / spread)
        else Printf.sprintf "unused-%d" i)
  in
  (* [-1] marks unnamed kinds (text, the document node): not an id. *)
  let remap = Array.map (fun id -> if id < 0 then id else id * spread) in
  let d' =
    Doc.of_columns ~doc_name:d.Doc.doc_name ~names:names' ~kind:d.Doc.kind
      ~size:d.Doc.size ~level:d.Doc.level ~parent:d.Doc.parent
      ~name:(remap d.Doc.name) ~value:d.Doc.value
      ~attr_owner:d.Doc.attr_owner ~attr_name:(remap d.Doc.attr_name)
      ~attr_value:d.Doc.attr_value
  in
  Doc.check_invariants d';
  let d'' = Persist.doc_of_string (Persist.doc_to_string d') in
  Doc.check_invariants d'';
  Alcotest.(check bool) "sparse-pool tree survives" true
    (Dom.equal_node (Doc.to_dom d (Doc.root d)) (Doc.to_dom d'' (Doc.root d'')));
  Alcotest.(check int) "attributes survive" (Doc.attribute_count d)
    (Doc.attribute_count d'')

(* The in-memory collection codec (used by WAL snapshots) agrees with
   the file-based one, hostile contents included. *)
let test_collection_string_roundtrip () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"empty.xml" "<root/>");
  (* The parser only admits ASCII names; hostile names enter through
     the DOM constructor, as a transformation pipeline would add them. *)
  ignore
    (Collection.add coll
       (Doc.of_dom ~name:"odd \xc3\xa9.xml"
          (Dom.document
             (Dom.element
                ~attrs:[ ("xml:lang", "fr"); ("\xc3\xa9", "\xf0\x9f\x98\x80") ]
                "a"
                [ Dom.element "b" [] ]))));
  Collection.add_blob coll
    (Blob.of_string ~name:"bin" "\x00\x01\xff binary \n bytes");
  let coll' = Persist.collection_of_string (Persist.collection_to_string coll) in
  Alcotest.(check int) "doc count" 2 (Collection.doc_count coll');
  Alcotest.(check (option int)) "empty doc kept" (Some 0)
    (Collection.doc_id_of_name coll' "empty.xml");
  Alcotest.(check (option int)) "odd-named doc kept" (Some 1)
    (Collection.doc_id_of_name coll' "odd \xc3\xa9.xml");
  (match Collection.blob coll' "bin" with
  | Some b ->
      Alcotest.(check string) "binary blob intact"
        "\x00\x01\xff binary \n bytes" (Blob.contents b)
  | None -> Alcotest.fail "blob lost");
  (* Deterministic encoding: string -> collection -> string is a
     fixpoint (documents in order, blobs sorted). *)
  let s = Persist.collection_to_string coll in
  Alcotest.(check string) "encoding is a fixpoint" s
    (Persist.collection_to_string (Persist.collection_of_string s))

(* ------------------------------------------------------------ *)
(* Collections and query equivalence                             *)

let test_collection_roundtrip () =
  let coll = Collection.create () in
  ignore
    (Collection.load_string coll ~name:"fig1.xml"
       "<sample><shot id=\"A\" start=\"0\" end=\"8\"/>\
        <music start=\"0\" end=\"31\"/></sample>");
  ignore (Collection.load_string coll ~name:"other.xml" "<x><y/></x>");
  Collection.add_blob coll (Blob.of_string ~name:"stream.bin" "0123456789");
  let path = Filename.temp_file "standoff" ".sodb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save_collection coll path;
      let coll' = Persist.load_collection path in
      Alcotest.(check int) "doc count" 2 (Collection.doc_count coll');
      Alcotest.(check (option int)) "doc by name kept" (Some 0)
        (Collection.doc_id_of_name coll' "fig1.xml");
      (match Collection.blob coll' "stream.bin" with
      | Some b -> Alcotest.(check string) "blob" "0123456789" (Blob.contents b)
      | None -> Alcotest.fail "blob lost");
      (* Queries over the reloaded collection give identical answers. *)
      let q =
        "for $s in doc(\"fig1.xml\")//music/select-wide::shot \
         return string($s/@id)"
      in
      let run coll = (Engine.run (Engine.create coll) q).Engine.serialized in
      Alcotest.(check string) "query equivalence" (run coll) (run coll'))

let test_xmark_roundtrip () =
  (* The real workload end-to-end: generate, transform, save, reload,
     and check a StandOff query agrees. *)
  let setup = Standoff_xmark.Setup.build ~scale:0.002 ~with_standard:false () in
  let path = Filename.temp_file "standoff" ".sodb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save_collection setup.Standoff_xmark.Setup.coll path;
      let coll' = Persist.load_collection path in
      let q =
        Standoff_xmark.Queries.q6.Standoff_xmark.Queries.standoff
          setup.Standoff_xmark.Setup.standoff_doc
      in
      let a =
        (Engine.run setup.Standoff_xmark.Setup.engine q)
          .Engine.serialized
      in
      let b =
        (Engine.run (Engine.create coll') q)
          .Engine.serialized
      in
      Alcotest.(check string) "Q6 equal after reload" a b)

let () =
  Alcotest.run "persist"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
        ] );
      ( "documents",
        [
          Alcotest.test_case "roundtrip" `Quick test_doc_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_doc_file_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_corruption_detected;
          QCheck_alcotest.to_alcotest qcheck_doc_roundtrip;
        ] );
      ( "hostile",
        [
          QCheck_alcotest.to_alcotest qcheck_hostile_roundtrip;
          Alcotest.test_case "sparse name-pool ids" `Quick
            test_sparse_name_pool;
          Alcotest.test_case "collection string roundtrip" `Quick
            test_collection_string_roundtrip;
        ] );
      ( "collections",
        [
          Alcotest.test_case "roundtrip with blobs" `Quick
            test_collection_roundtrip;
          Alcotest.test_case "xmark end-to-end" `Quick test_xmark_roundtrip;
        ] );
    ]
