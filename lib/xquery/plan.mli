(** The logical/physical query-plan IR between parsing and evaluation.

    {!lower} turns an {!Ast.expr} into a plan tree in which the path
    operators are explicit physical operators: axis steps with an
    optionally fused positional predicate, and the paper's four
    StandOff joins as {!desc.Standoff_join} nodes carrying the
    candidate-pushdown decision (§4.3) and a per-operator evaluation
    strategy.  {!Optimize} rewrites plans; {!Eval} executes them.

    Every node carries a process-unique integer {!t.id}.  The plan
    itself holds no run-time state: a traced run
    ({!Standoff_obs.Trace}) opens one span per operator evaluation
    tagged with the node id, and EXPLAIN ANALYZE distills the span
    tree into one {!analysis} per node keyed on that id. *)

type strategy_choice =
  | S_auto  (** resolve per call site from annotation statistics *)
  | S_fixed of Standoff.Config.strategy

type t = { id : int; desc : desc }

and desc =
  | Literal of Ast.literal
  | Var of string
  | Context_item
  | Sequence of t list
  | For of {
      var : string;
      pos_var : string option;
      source : t;
      order_by : order_spec list;
      body : t;
    }
  | Let of { var : string; value : t; body : t }
  | Where of { cond : t; body : t }
  | Quantified of { universal : bool; var : string; source : t; satisfies : t }
  | If of { cond : t; then_ : t; else_ : t }
  | Binop of Ast.binop * t * t
  | Unary_minus of t
  | Axis_step of {
      input : t;
      axis : Standoff_xpath.Axes.axis;
      test : Standoff_xpath.Node_test.t;
      position : int option;  (** fused positional predicate *)
    }
  | Attribute_step of { input : t; test : Standoff_xpath.Node_test.t }
  | Standoff_join of {
      input : t;
      op : Standoff.Op.t;
      test : Standoff_xpath.Node_test.t;
      position : int option;
      pushdown : bool;
          (** [true]: the name test restricts the candidate region
              index before the join; [false]: post-filter *)
      strategy : strategy_choice;
      candidates : t option;  (** explicit candidates (function form) *)
    }
  | Path_lookup of {
      input : t;  (** evaluates to document nodes (doc()/root() calls) *)
      steps : (bool * string) list;
          (** collapsed child ([false]) / descendant ([true]) name
              steps, answered in one {!Standoff_store.Dataguide} probe
              per document *)
    }
  | Filter of { input : t; predicate : t }
  | Path_map of { input : t; body : t }
  | Call of { name : string; args : t list }
  | Elem_ctor of {
      tag : string;
      attrs : (string * attr_part list) list;
      content : attr_part list;
    }

and attr_part = Fixed of string | Enclosed of t

and order_spec = { key : t; descending : bool }

type function_def = { fn_name : string; fn_params : string list; fn_body : t }

(** [make desc] wraps [desc] with a fresh process-unique node id. *)
val make : desc -> t

(** [lower ?is_udf e] is the structural lowering of [e].  [is_udf]
    names user-declared functions, which shadow the builtin function
    form of the StandOff operators. *)
val lower : ?is_udf:(string -> bool) -> Ast.expr -> t

(** [free_vars p] is the set of variables [p] references but does not
    bind, as {!Ast.free_vars}. *)
val free_vars : t -> string list

(** [constructs p] holds when [p] contains an element constructor
    anywhere — i.e. evaluating it may build nodes in the run's arena.
    Only {!Engine.prepared_constructs} reads it. *)
val constructs : t -> bool

(** Per-node aggregation of one traced run (EXPLAIN ANALYZE): call
    count, input/output row cardinalities, inclusive wall time,
    region-index rows scanned, parallel sweep chunks, and the resolved
    strategy. *)
type analysis = {
  mutable a_calls : int;
  mutable a_rows_in : int;  (** rows of the primary input (step-like ops) *)
  mutable a_rows_out : int;
  mutable a_seconds : float;  (** inclusive wall time *)
  mutable a_index_rows : int;  (** region-index rows the joins scanned *)
  mutable a_chunks : int;  (** parallel sweep chunks the joins ran *)
  mutable a_guide_rows : int;
      (** candidate pres the DataGuide probes returned (path lookups) *)
  mutable a_strategy : Standoff.Config.strategy option;
      (** last strategy an auto operator resolved to *)
}

(** A zeroed {!analysis}. *)
val fresh_analysis : unit -> analysis

(** [analyze_suffix p a] is the per-line EXPLAIN ANALYZE annotation for
    node [p]: ["  (not executed)"] when [a] is [None], else the
    counter summary (rows_in only on step-like operators, index rows /
    chunks / strategy only on StandOff joins). *)
val analyze_suffix : t -> analysis option -> string

(** [render ?annotate p] draws the plan tree; [annotate], when given,
    appends a per-node suffix to each operator line (EXPLAIN ANALYZE
    passes {!analyze_suffix} applied to its aggregation table). *)
val render : ?annotate:(t -> string) -> t -> string

(** [label p] is the one-line operator description {!render} uses for
    the root of [p] (exposed for tests). *)
val label : t -> string

(** [path_to_string steps] renders a {!desc.Path_lookup} step list as
    the path it collapsed, e.g. [//site/open_auctions]. *)
val path_to_string : (bool * string) list -> string
