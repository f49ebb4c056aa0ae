(** StandOff configuration (paper §2).

    The names under which regions are attached to annotation elements,
    and the representation (attributes vs. [<region>] child elements),
    are application choices, declared per query with

    {v
    declare option standoff-type   "qualified-name"
    declare option standoff-start  "qualified-name"
    declare option standoff-end    "qualified-name"
    declare option standoff-region "qualified-name"
    v}

    When [standoff-region] is set, the element representation is used
    and [standoff-start]/[standoff-end] name {e elements}; otherwise
    they name {e attributes}. *)

type representation =
  | Attributes       (** [<foo start="1" end="10"/>] — compact, one region *)
  | Region_elements  (** [<foo><region><start>1</start>...</region></foo>] —
                         supports non-contiguous areas *)

type t = {
  start_name : string;          (** default ["start"] *)
  end_name : string;            (** default ["end"] *)
  region_name : string option;  (** [Some n] selects {!Region_elements} *)
  position_type : string;       (** default ["xs:integer"]; informational —
                                    this implementation requires positions
                                    representable as 64-bit integers, as
                                    the paper's does *)
}

(** [default] is attribute representation with names
    ["start"]/["end"] and type ["xs:integer"]. *)
val default : t

(** [representation t] is derived from [region_name]. *)
val representation : t -> representation

(** [with_region_elements ?region_name t] switches to the element
    representation (default element name ["region"]). *)
val with_region_elements : ?region_name:string -> t -> t

(** [set_option t ~name ~value] applies one [declare option standoff-*]
    declaration; [name] is the part after ["standoff-"] (["type"],
    ["start"], ["end"] or ["region"]).
    @raise Invalid_argument on unknown option names or invalid QNames. *)
val set_option : t -> name:string -> value:string -> t

(** [equal a b] compares configurations (used as cache key). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Evaluation strategy for the StandOff steps — the implementations
    compared in the paper's Figure 6. *)
type strategy =
  | Udf_no_candidates
      (** Figure 2: nested-loop against {e all} area-annotations of the
          document; node tests apply after the join.  DNF at any
          realistic size in the paper. *)
  | Udf_candidates
      (** Figure 3: nested-loop against a candidate sequence restricted
          by the step's name test. *)
  | Basic_merge
      (** §4.4: StandOff MergeJoin, invoked once per loop iteration —
          each invocation scans the region index. *)
  | Loop_lifted
      (** §4.5 / Listing 1: loop-lifted StandOff MergeJoin — one scan
          for all iterations. *)

(** [strategy_of_string s] parses ["udf-nocand" | "udf-cand" | "basic" |
    "loop-lifted"].
    @raise Invalid_argument otherwise. *)
val strategy_of_string : string -> strategy

(** [strategy_to_string s] is the inverse of {!strategy_of_string}. *)
val strategy_to_string : strategy -> string

(** [all_strategies] in the order of the paper's comparison. *)
val all_strategies : strategy list
