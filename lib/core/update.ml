module Doc = Standoff_store.Doc
module Region = Standoff_interval.Region

(* Locate the attribute rows of [pre] holding the configured start/end
   names; the attribute table is mutable (plain arrays), so rewriting
   the values is an in-place update. *)
let region_attr_rows config doc ~pre =
  if Config.representation config <> Config.Attributes then
    invalid_arg "Update: only the attribute representation is updatable";
  if Doc.kind_of doc pre <> Doc.Element then
    invalid_arg (Printf.sprintf "Update: node %d is not an element" pre);
  let lo = doc.Doc.attr_first.(pre) and hi = doc.Doc.attr_first.(pre + 1) in
  let find name =
    let rec scan i =
      if i >= hi then None
      else
        let attr = doc.Doc.attr_name.(i) in
        if String.equal (Standoff_store.Name_pool.name doc.Doc.names attr) name
        then Some i
        else scan (i + 1)
    in
    scan lo
  in
  match (find config.Config.start_name, find config.Config.end_name) with
  | Some s, Some e -> (s, e)
  | _ ->
      invalid_arg
        (Printf.sprintf "Update: node %d is not an area-annotation" pre)

let set_region cat config doc ~pre region =
  let s_row, e_row = region_attr_rows config doc ~pre in
  doc.Doc.attr_value.(s_row) <- Int64.to_string (Region.start_pos region);
  doc.Doc.attr_value.(e_row) <- Int64.to_string (Region.end_pos region);
  (* Patches the cached index and re-stamps the DataGuide; the
     generation and version bumps expire every stamped cache entry
     (engine results) derived from the old regions. *)
  Catalog.regions_changed cat doc (Catalog.Moved { config; pre; region })

let shift_annotations cat config doc ~from ~by =
  let annots = Catalog.annots cat config doc in
  (* Two passes: validate every shift (including locating the attribute
     rows) before touching any row.  A single interleaved pass would
     leave earlier annotations rewritten when a later one raises —
     with no invalidation or WAL record, so generation-stamped caches
     would keep serving pre-update answers over a mutated store. *)
  let pending = ref [] in
  Array.iteri
    (fun slot pre ->
      let area = annots.Annots.areas.(slot) in
      let extent = Standoff_interval.Area.extent area in
      if Int64.compare (Region.start_pos extent) from >= 0 then begin
        let add pos =
          let positive = Int64.compare by 0L > 0 in
          let limit = Int64.sub (if positive then Int64.max_int else Int64.min_int) by in
          if (positive && pos > limit) || ((not positive) && pos < limit) then
            invalid_arg
              (Printf.sprintf
                 "Update.shift_annotations: shifting %Ld by %Ld overflows" pos by);
          Int64.add pos by
        in
        let start_ = add (Region.start_pos extent) in
        let end_ = add (Region.end_pos extent) in
        if Int64.compare start_ 0L < 0 then
          invalid_arg "Update.shift_annotations: region would become negative";
        let s_row, e_row = region_attr_rows config doc ~pre in
        pending := (s_row, e_row, start_, end_) :: !pending
      end)
    annots.Annots.ids;
  let moved = List.length !pending in
  List.iter
    (fun (s_row, e_row, start_, end_) ->
      doc.Doc.attr_value.(s_row) <- Int64.to_string start_;
      doc.Doc.attr_value.(e_row) <- Int64.to_string end_)
    !pending;
  if moved > 0 then Catalog.regions_changed cat doc Catalog.Shifted;
  moved
