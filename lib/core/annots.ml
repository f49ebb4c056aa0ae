module Vec = Standoff_util.Vec
module Search = Standoff_util.Search
module Doc = Standoff_store.Doc
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area

exception Invalid_region of { pre : int; msg : string }

module Lru = Standoff_cache.Lru

(* Restricted-index cache: keyed structurally on the candidate array,
   so structurally equal candidate sets from separate [prepare] calls
   hit, and bounded so it cannot grow without limit.  [Lru] holds its
   mutex under [Fun.protect], so sharing one [Annots.t] across pool
   domains is safe even on exception paths — the hand-rolled
   predecessor could leak its lock and deadlock every later lookup.
   Hits and misses surface as [standoff_cache_*{cache="restricted"}]. *)
type restricted_cache = (int array, Region_index.t) Lru.t

let restricted_cache_capacity = 8

let cache_create () =
  Lru.create ~name:"restricted" ~max_entries:restricted_cache_capacity
    ~weight:(fun idx -> (Region_index.row_count idx * 24) + 64)
    ()

type t = {
  doc : Doc.t;
  ids : int array;
  areas : Area.t array;
  index : Region_index.t;
  max_regions_per_area : int;
  restricted_cache : restricted_cache;
}

let fail pre fmt = Printf.ksprintf (fun msg -> raise (Invalid_region { pre; msg })) fmt

let parse_pos pre what s =
  match Int64.of_string_opt (String.trim s) with
  | Some v -> v
  | None -> fail pre "%s position %S is not an integer" what s

let region_of pre start_s end_s =
  let s = parse_pos pre "start" start_s and e = parse_pos pre "end" end_s in
  if Int64.compare s e > 0 then fail pre "start %Ld exceeds end %Ld" s e;
  Region.make s e

(* Attribute representation: an element is an area-annotation iff both
   attributes are present; one without the other is malformed. *)
let area_from_attributes config doc pre =
  let start_attr = Doc.attribute doc pre config.Config.start_name in
  let end_attr = Doc.attribute doc pre config.Config.end_name in
  match (start_attr, end_attr) with
  | None, None -> None
  | Some s, Some e -> Some (Area.of_region (region_of pre s e))
  | Some _, None -> fail pre "attribute %S without %S" config.Config.start_name config.Config.end_name
  | None, Some _ -> fail pre "attribute %S without %S" config.Config.end_name config.Config.start_name

(* Element representation: region children carry start/end child
   elements whose text content is the position. *)
let area_from_region_elements config doc region_name pre =
  let child_named el_pre name =
    let found = ref None in
    Doc.iter_children doc el_pre (fun c ->
        if
          Doc.kind_of doc c = Doc.Element
          && Option.fold ~none:false ~some:(String.equal name) (Doc.name_of doc c)
        then found := Some c);
    !found
  in
  let regions = ref [] in
  Doc.iter_children doc pre (fun c ->
      if
        Doc.kind_of doc c = Doc.Element
        && Option.fold ~none:false ~some:(String.equal region_name) (Doc.name_of doc c)
      then begin
        let start_el = child_named c config.Config.start_name in
        let end_el = child_named c config.Config.end_name in
        match (start_el, end_el) with
        | Some s, Some e ->
            regions :=
              region_of pre (Doc.string_value doc s) (Doc.string_value doc e)
              :: !regions
        | None, _ -> fail pre "region element without <%s>" config.Config.start_name
        | _, None -> fail pre "region element without <%s>" config.Config.end_name
      end);
  match !regions with [] -> None | rs -> Some (Area.make (List.rev rs))

let extract ?pool config doc =
  let area_of_pre =
    match config.Config.region_name with
    | None -> area_from_attributes config doc
    | Some region_name -> area_from_region_elements config doc region_name
  in
  let ids = Vec.create () and areas = Vec.create () in
  let max_regions = ref 1 in
  for pre = 0 to Doc.node_count doc - 1 do
    if Doc.kind_of doc pre = Doc.Element then
      match area_of_pre pre with
      | None -> ()
      | Some area ->
          Vec.push ids pre;
          Vec.push areas area;
          max_regions := max !max_regions (Area.region_count area)
  done;
  let ids = Vec.to_array ids and areas = Vec.to_array areas in
  let annots = Array.to_list (Array.map2 (fun id a -> (id, a)) ids areas) in
  {
    doc;
    ids;
    areas;
    index = Region_index.build ?pool annots;
    max_regions_per_area = !max_regions;
    restricted_cache = cache_create ();
  }

let annotation_count t = Array.length t.ids

let find_slot t pre =
  let i = Search.lower_bound_int t.ids pre in
  if i < Array.length t.ids && t.ids.(i) = pre then Some i else None

let area_of t pre = Option.map (fun i -> t.areas.(i)) (find_slot t pre)
let is_annotation t pre = find_slot t pre <> None

let restrict_ids t ~candidates =
  let out = Vec.create () in
  Array.iter
    (fun pre -> if is_annotation t pre then Vec.push out pre)
    candidates;
  Vec.to_array out

let candidate_index_scan ?pool t ~candidates =
  match candidates with
  | None -> t.index
  | Some ids -> Region_index.restrict ?pool t.index ~ids

let candidate_index ?pool t ~candidates =
  match candidates with
  | None -> t.index
  | Some ids -> (
      match Lru.find t.restricted_cache ids with
      | Some idx -> idx
      | None ->
          (* §4.3 index intersection on node-id, done from the
             candidate side: each candidate's regions are already
             known, so the restricted index is built in
             O(|candidates| log |candidates|) instead of scanning the
             full region index. *)
          let pairs =
            Array.fold_right
              (fun pre acc ->
                match find_slot t pre with
                | Some slot -> (pre, t.areas.(slot)) :: acc
                | None -> acc)
              ids []
          in
          (* Document order, like [extract]'s, so the build can skip
             its sort when the regions nest like the tree. *)
          let idx = Region_index.build ?pool pairs in
          Lru.add t.restricted_cache ids idx;
          idx)

let move t ~pre region =
  match find_slot t pre with
  | None ->
      invalid_arg (Printf.sprintf "Annots.move: %d is not an annotation" pre)
  | Some slot -> (
      match Area.regions t.areas.(slot) with
      | [ from ] ->
          Region_index.move_row t.index ~id:pre ~rank:0 ~from ~to_:region;
          t.areas.(slot) <- Area.of_region region;
          (* Restrictions copy rows out of the full index, so every one
             of them may hold the old region. *)
          Lru.clear t.restricted_cache
      | _ ->
          invalid_arg
            (Printf.sprintf "Annots.move: %d has a multi-region area" pre))
