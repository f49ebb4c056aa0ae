module Vec = Standoff_util.Vec
module Doc = Standoff_store.Doc
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area

exception Invalid_region of { pre : int; msg : string }

(* One restricted index per element name, built on first use and kept
   for the life of the table: each annotation has exactly one name, so
   together they never hold more rows than the full index.  [ids] are
   the name's annotation pres, sorted.  Guarded by [lock] because one
   table is shared by every reader (pool domains included). *)
type named = { n_ids : int array; n_index : Region_index.t }
type by_name = { lock : Mutex.t; tbl : (string, named) Hashtbl.t }

type t = {
  doc : Doc.t;
  ids : int array;
  areas : Area.t array;
  slots : int array;
  first_region : int array;
  region_starts : Region_index.positions;
  region_ends : Region_index.positions;
  index : Region_index.t;
  max_regions_per_area : int;
  by_name : by_name;
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

(* The region index over the given annotation slots, in document order
   like [extract]'s scan, so the build can skip its sort when the
   regions nest like the tree. *)
let index_of_slots ~ids:all_ids ~first_region ~region_starts ~region_ends slots =
  let n =
    Array.fold_left
      (fun acc s -> acc + first_region.(s + 1) - first_region.(s))
      0 slots
  in
  let starts = Region_index.positions n and ends = Region_index.positions n in
  let ids = Array.make n 0 and ranks = Array.make n 0 in
  let k = ref 0 in
  Array.iter
    (fun s ->
      let first = first_region.(s) in
      for r = first to first_region.(s + 1) - 1 do
        starts.{!k} <- region_starts.{r};
        ends.{!k} <- region_ends.{r};
        ids.(!k) <- all_ids.(s);
        ranks.(!k) <- r - first;
        incr k
      done)
    slots;
  Region_index.of_columns ~starts ~ends ~ids ~ranks

let extract config doc =
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
  let slots = Array.make (Doc.node_count doc) (-1) in
  Array.iteri (fun slot pre -> slots.(pre) <- slot) ids;
  (* The regions of every area, flat: slot [s] owns rows
     [first_region.(s) .. first_region.(s + 1) - 1]. *)
  let first_region = Array.make (Array.length ids + 1) 0 in
  Array.iteri
    (fun slot a -> first_region.(slot + 1) <- first_region.(slot) + Area.region_count a)
    areas;
  let n_regions = first_region.(Array.length ids) in
  let region_starts = Region_index.positions n_regions
  and region_ends = Region_index.positions n_regions in
  Array.iteri
    (fun slot a ->
      List.iteri
        (fun rank r ->
          region_starts.{first_region.(slot) + rank} <- Region.start_pos r;
          region_ends.{first_region.(slot) + rank} <- Region.end_pos r)
        (Area.regions a))
    areas;
  {
    doc;
    ids;
    areas;
    slots;
    first_region;
    region_starts;
    region_ends;
    index =
      index_of_slots ~ids ~first_region ~region_starts ~region_ends
        (Array.init (Array.length ids) Fun.id);
    max_regions_per_area = !max_regions;
    by_name = { lock = Mutex.create (); tbl = Hashtbl.create 16 };
  }

let annotation_count t = Array.length t.ids

let slot_of t pre =
  if pre >= 0 && pre < Array.length t.slots then Array.unsafe_get t.slots pre
  else -1

let area_of t pre =
  let slot = slot_of t pre in
  if slot < 0 then None else Some t.areas.(slot)

let is_annotation t pre = slot_of t pre >= 0

let restrict_ids t ~candidates =
  let out = Vec.create () in
  Array.iter
    (fun pre -> if is_annotation t pre then Vec.push out pre)
    candidates;
  Vec.to_array out

let candidate_index_scan t ~candidates =
  match candidates with
  | None -> t.index
  | Some ids -> Region_index.restrict t.index ~ids

let find_named t name =
  Mutex.protect t.by_name.lock (fun () -> Hashtbl.find_opt t.by_name.tbl name)

let named t name =
  match find_named t name with
  | Some n -> n
  | None ->
      (* §4.3 index intersection on node-id, done from the candidate
         side: each candidate's regions are already known, so the
         index is built from them alone instead of scanning the full
         region index.  Built outside the lock; a racing builder's
         equal index is dropped. *)
      let n_ids = restrict_ids t ~candidates:(Doc.elements_named t.doc name) in
      let n_index =
        index_of_slots ~ids:t.ids ~first_region:t.first_region
          ~region_starts:t.region_starts ~region_ends:t.region_ends
          (Array.map (slot_of t) n_ids)
      in
      let n = { n_ids; n_index } in
      Mutex.protect t.by_name.lock (fun () ->
          match Hashtbl.find_opt t.by_name.tbl name with
          | Some first -> first
          | None ->
              Hashtbl.add t.by_name.tbl name n;
              n)

let candidate_index t ~name =
  match name with None -> t.index | Some n -> (named t n).n_index

let candidate_ids t ~name =
  match name with None -> t.ids | Some n -> (named t n).n_ids

let move t ~pre region =
  let slot = slot_of t pre in
  if slot < 0 then
    invalid_arg (Printf.sprintf "Annots.move: %d is not an annotation" pre);
  match Area.regions t.areas.(slot) with
  | [ from ] ->
      Region_index.move_row t.index ~id:pre ~rank:0 ~from ~to_:region;
      (* The annotation's row lives in one per-name index besides the
         full one: the index of its own name, if built. *)
      Option.iter
        (fun name ->
          Option.iter
            (fun n ->
              Region_index.move_row n.n_index ~id:pre ~rank:0 ~from ~to_:region)
            (find_named t name))
        (Doc.name_of t.doc pre);
      t.areas.(slot) <- Area.of_region region;
      t.region_starts.{t.first_region.(slot)} <- Region.start_pos region;
      t.region_ends.{t.first_region.(slot)} <- Region.end_pos region
  | _ ->
      invalid_arg
        (Printf.sprintf "Annots.move: %d has a multi-region area" pre)
