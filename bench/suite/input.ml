(* The benchmark's input: a seeded inline XMark document, the bytes the
   server is sent, and the suite's own in-process stand-off conversion
   of those same bytes, which is what the oracles and the traced run
   evaluate against. *)

module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Dom = Standoff_xml.Dom
module Engine = Standoff_xquery.Engine
module Config = Standoff.Config
module Convert = Standoff_convert.Convert
module Gen = Standoff_xmark.Gen

(* [POST /ingest?convert=standoff&name=D] registers document [D] and
   BLOB [D ^ ".blob"]; the queries name the document. *)
let doc_name = "xmark.xml"
let blob_name = doc_name ^ ".blob"

type t = {
  scale : float;
  inline : string;  (** the generated document, serialized: all the server gets *)
  standoff : Dom.document;  (** the conversion the server performs, done here *)
  blob : string;
  counts : Gen.counts;
}

let make ~scale ~seed =
  let inline =
    Standoff_xml.Serializer.to_string
      (Gen.generate { Gen.scale; seed = Int64.of_int seed })
  in
  let conv = Convert.to_standoff (Standoff_xml.Parser.parse_string inline) in
  {
    scale;
    inline;
    standoff = conv.Convert.doc;
    blob = conv.Convert.blob;
    counts = Gen.counts_for scale;
  }

(* A fresh shredding: updates rewrite a document's attributes in place,
   so every engine gets its own. *)
let shred t = Doc.of_dom ~name:doc_name t.standoff

(* The increase annotations the update-mix writer toggles, as
   (pre, start, end) in the stand-off document.  Shredding is
   deterministic, so these pres are the server's too. *)
let increases t =
  let doc = shred t in
  let attr pre name =
    match Doc.attribute doc pre name with
    | Some v -> Int64.of_string v
    | None -> failwith ("increase without " ^ name)
  in
  Array.map
    (fun pre -> (pre, attr pre "start", attr pre "end"))
    (Doc.elements_named doc "increase")

(* The reference: every join pinned to loop-lifted, evaluated
   sequentially and uncached — a different code path from the server's
   (auto strategy, adaptive jobs, result cache), which is what makes
   agreement meaningful.  [dataguide:false] also takes the path index
   out; it costs 25-45 ms per point query at XMark 0.05-0.1, so only
   the few scan texts can afford it. *)
let reference_engine ~dataguide t =
  let eng =
    Engine.create ~strategy:Config.Loop_lifted ~jobs:1 ~cache:Engine.Cache_off
      ~dataguide (Collection.create ())
  in
  ignore (Engine.ingest eng [ shred t ] [ (blob_name, t.blob) ]);
  eng

(* Reply bytes as the server sends them: the serialization plus one
   newline. *)
let reference_reply eng text =
  (Engine.run eng ~rollback_constructed:true text).Engine.serialized ^ "\n"
