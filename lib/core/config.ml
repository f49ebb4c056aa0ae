type representation =
  | Attributes
  | Region_elements

type t = {
  start_name : string;
  end_name : string;
  region_name : string option;
  position_type : string;
}

let default =
  {
    start_name = "start";
    end_name = "end";
    region_name = None;
    position_type = "xs:integer";
  }

let representation t =
  match t.region_name with None -> Attributes | Some _ -> Region_elements

let with_region_elements ?(region_name = "region") t =
  { t with region_name = Some region_name }

let check_qname what value =
  if not (Standoff_xml.Dom.valid_name value) then
    invalid_arg
      (Printf.sprintf "standoff-%s: %S is not a valid qualified name" what
         value)

let set_option t ~name ~value =
  match name with
  | "type" -> { t with position_type = value }
  | "start" ->
      check_qname "start" value;
      { t with start_name = value }
  | "end" ->
      check_qname "end" value;
      { t with end_name = value }
  | "region" ->
      check_qname "region" value;
      { t with region_name = Some value }
  | other ->
      invalid_arg (Printf.sprintf "unknown option standoff-%s" other)

let equal a b =
  String.equal a.start_name b.start_name
  && String.equal a.end_name b.end_name
  && Option.equal String.equal a.region_name b.region_name
  && String.equal a.position_type b.position_type

let pp fmt t =
  Format.fprintf fmt "standoff{start=%s end=%s%s type=%s}" t.start_name
    t.end_name
    (match t.region_name with None -> "" | Some r -> " region=" ^ r)
    t.position_type

type strategy =
  | Udf_no_candidates
  | Udf_candidates
  | Basic_merge
  | Loop_lifted

let strategy_of_string = function
  | "udf-nocand" -> Udf_no_candidates
  | "udf-cand" -> Udf_candidates
  | "basic" -> Basic_merge
  | "loop-lifted" -> Loop_lifted
  | s ->
      invalid_arg
        (Printf.sprintf
           "unknown strategy %S (expected udf-nocand, udf-cand, basic or \
            loop-lifted)"
           s)

let strategy_to_string = function
  | Udf_no_candidates -> "udf-nocand"
  | Udf_candidates -> "udf-cand"
  | Basic_merge -> "basic"
  | Loop_lifted -> "loop-lifted"

let all_strategies = [ Udf_no_candidates; Udf_candidates; Basic_merge; Loop_lifted ]
