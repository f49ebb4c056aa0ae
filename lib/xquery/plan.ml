(* The logical/physical query-plan IR between [Parse] and [Eval].

   Lowering from [Ast.expr] is structural and lossless; the interesting
   part is that path operators stop being generic AST nodes and become
   explicit plan operators carrying the decisions the optimizer makes:

   - [Axis_step]/[Attribute_step] with an optional fused positional
     predicate ([a/b[1]] executes as one step, no filter machinery);
   - [Standoff_join] for the paper's four operators, in both axis form
     ([x/select-narrow::music]) and function form
     ([select-narrow(x, cands)]), carrying the candidate-pushdown
     decision (restrict the region-index scan vs. post-filter, §4.3)
     and a per-operator strategy choice resolved from {!Standoff.Annots}
     statistics instead of the engine-wide knob.

   Every node carries a process-unique integer {!id}.  The evaluator
   carries no instrumentation of its own any more: when a query runs
   with a {!Standoff_obs.Trace} collector attached, each operator
   evaluation opens a span tagged with the node id, and EXPLAIN ANALYZE
   aggregates the span tree back onto the plan through that id (see
   {!analysis} and [Engine.explain_analyze]). *)

module Node_test = Standoff_xpath.Node_test
module Axes = Standoff_xpath.Axes
module Op = Standoff.Op
module Config = Standoff.Config

type strategy_choice =
  | S_auto  (** resolve per call site from annotation statistics *)
  | S_fixed of Config.strategy  (** pinned by prolog/CLI/optimizer *)

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
      axis : Axes.axis;
      test : Node_test.t;
      position : int option;  (** fused positional predicate *)
    }
  | Attribute_step of { input : t; test : Node_test.t }
  | Standoff_join of {
      input : t;
      op : Op.t;
      test : Node_test.t;
      position : int option;
      pushdown : bool;
          (** [true]: a name test restricts the candidate region index
              before the join; [false]: join against all
              area-annotations and post-filter with [test] *)
      strategy : strategy_choice;
      candidates : t option;
          (** explicit candidate sequence (function form, Figure 3) *)
    }
  | Path_lookup of {
      input : t;  (** evaluates to document nodes (doc()/root() calls) *)
      steps : (bool * string) list;
          (** the collapsed child ([false]) / descendant ([true]) name
              steps, answered in one DataGuide probe per document *)
    }
  | Filter of { input : t; predicate : t }
  | Attr_filter of { input : t; attr : string; value : string }
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

(* Node ids are process-wide (an atomic, not a per-plan counter), so
   ids from different prepared queries never collide and a span tree
   can be aggregated without knowing which plan object it came from. *)
let next_id = Stdlib.Atomic.make 0

let make desc = { id = Stdlib.Atomic.fetch_and_add next_id 1; desc }

(* ------------------------------------------------------------------ *)
(* Lowering                                                           *)

(* Strip an optional namespace prefix, the way [Eval.eval_call] does
   before builtin lookup. *)
let local_name name =
  match String.index_opt name ':' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let lower ?(is_udf = fun _ -> false) expr =
  let rec go expr =
    match expr with
    | Ast.Literal l -> make (Literal l)
    | Ast.Var v -> make (Var v)
    | Ast.Context_item -> make Context_item
    | Ast.Sequence es -> make (Sequence (List.map go es))
    | Ast.For { var; pos_var; source; order_by; body } ->
        make
          (For
             {
               var;
               pos_var;
               source = go source;
               order_by =
                 List.map
                   (fun s ->
                     { key = go s.Ast.key; descending = s.Ast.descending })
                   order_by;
               body = go body;
             })
    | Ast.Let { var; value; body } ->
        make (Let { var; value = go value; body = go body })
    | Ast.Where { cond; body } ->
        make (Where { cond = go cond; body = go body })
    | Ast.Quantified { universal; var; source; satisfies } ->
        make
          (Quantified
             { universal; var; source = go source; satisfies = go satisfies })
    | Ast.If { cond; then_; else_ } ->
        make (If { cond = go cond; then_ = go then_; else_ = go else_ })
    | Ast.Binop (op, a, b) -> make (Binop (op, go a, go b))
    | Ast.Unary_minus e -> make (Unary_minus (go e))
    | Ast.Step { input; axis = Ast.Std axis; test } ->
        make (Axis_step { input = go input; axis; test; position = None })
    | Ast.Step { input; axis = Ast.Attribute; test } ->
        make (Attribute_step { input = go input; test })
    | Ast.Step { input; axis = Ast.Standoff op; test } ->
        make
          (Standoff_join
             {
               input = go input;
               op;
               test;
               position = None;
               pushdown = false;
               strategy = S_auto;
               candidates = None;
             })
    | Ast.Call { name; args }
      when (not (is_udf name))
           && (not (is_udf (local_name name)))
           && Option.is_some (Op.of_string_opt (local_name name))
           && (List.length args = 1 || List.length args = 2) ->
        (* Alternative-3 function form of the StandOff joins (§3.2):
           unify with the axis form at the plan level. *)
        let op = Option.get (Op.of_string_opt (local_name name)) in
        let input, candidates =
          match args with
          | [ ctx ] -> (go ctx, None)
          | [ ctx; cand ] -> (go ctx, Some (go cand))
          | _ -> assert false
        in
        make
          (Standoff_join
             {
               input;
               op;
               test = Node_test.Kind_node;
               position = None;
               pushdown = false;
               strategy = S_auto;
               candidates;
             })
    | Ast.Call { name; args } -> make (Call { name; args = List.map go args })
    | Ast.Filter { input; predicate } ->
        make (Filter { input = go input; predicate = go predicate })
    | Ast.Path_map { input; body } ->
        make (Path_map { input = go input; body = go body })
    | Ast.Elem_ctor { tag; attrs; content } ->
        let part = function
          | Ast.Fixed s -> Fixed s
          | Ast.Enclosed e -> Enclosed (go e)
        in
        make
          (Elem_ctor
             {
               tag;
               attrs = List.map (fun (n, ps) -> (n, List.map part ps)) attrs;
               content = List.map part content;
             })
  in
  go expr

(* ------------------------------------------------------------------ *)
(* Free variables (the evaluator lifts only live variables through
   for-loops, exactly as [Ast.free_vars] does pre-lowering).          *)

let free_vars plan =
  let module S = Set.Make (String) in
  let rec go bound acc p =
    match p.desc with
    | Literal _ | Context_item -> acc
    | Var v -> if S.mem v bound then acc else S.add v acc
    | Sequence es -> List.fold_left (go bound) acc es
    | For { var; pos_var; source; order_by; body } ->
        let acc = go bound acc source in
        let bound = S.add var bound in
        let bound =
          match pos_var with Some p -> S.add p bound | None -> bound
        in
        let acc =
          List.fold_left (fun acc spec -> go bound acc spec.key) acc order_by
        in
        go bound acc body
    | Let { var; value; body } ->
        let acc = go bound acc value in
        go (S.add var bound) acc body
    | Where { cond; body } -> go bound (go bound acc cond) body
    | Quantified { var; source; satisfies; _ } ->
        let acc = go bound acc source in
        go (S.add var bound) acc satisfies
    | If { cond; then_; else_ } ->
        go bound (go bound (go bound acc cond) then_) else_
    | Binop (_, a, b) -> go bound (go bound acc a) b
    | Unary_minus e
    | Axis_step { input = e; _ }
    | Attribute_step { input = e; _ }
    | Path_lookup { input = e; _ }
    | Attr_filter { input = e; _ } ->
        go bound acc e
    | Standoff_join { input; candidates; _ } ->
        let acc = go bound acc input in
        (match candidates with Some c -> go bound acc c | None -> acc)
    | Filter { input; predicate } -> go bound (go bound acc input) predicate
    | Path_map { input; body } -> go bound (go bound acc input) body
    | Call { args; _ } -> List.fold_left (go bound) acc args
    | Elem_ctor { attrs; content; _ } ->
        let go_part acc = function
          | Fixed _ -> acc
          | Enclosed e -> go bound acc e
        in
        let acc =
          List.fold_left
            (fun acc (_, parts) -> List.fold_left go_part acc parts)
            acc attrs
        in
        List.fold_left go_part acc content
  in
  go S.empty S.empty plan |> S.elements

let rec constructs p =
  match p.desc with
  | Elem_ctor _ -> true
  | Literal _ | Var _ | Context_item -> false
  | Sequence es -> List.exists constructs es
  | For { source; order_by; body; _ } ->
      constructs source || constructs body
      || List.exists (fun spec -> constructs spec.key) order_by
  | Let { value; body; _ } -> constructs value || constructs body
  | Where { cond; body } -> constructs cond || constructs body
  | Quantified { source; satisfies; _ } ->
      constructs source || constructs satisfies
  | If { cond; then_; else_ } ->
      constructs cond || constructs then_ || constructs else_
  | Binop (_, a, b) -> constructs a || constructs b
  | Unary_minus e
  | Axis_step { input = e; _ }
  | Attribute_step { input = e; _ }
  | Path_lookup { input = e; _ }
  | Attr_filter { input = e; _ } ->
      constructs e
  | Standoff_join { input; candidates; _ } ->
      constructs input
      || (match candidates with Some c -> constructs c | None -> false)
  | Filter { input; predicate } -> constructs input || constructs predicate
  | Path_map { input; body } -> constructs input || constructs body
  | Call { args; _ } -> List.exists constructs args

(* ------------------------------------------------------------------ *)
(* Rendering (EXPLAIN / EXPLAIN ANALYZE)                              *)

let literal_to_string = function
  | Ast.Lit_int i -> Int64.to_string i
  | Ast.Lit_float f -> Printf.sprintf "%.17g" f
  | Ast.Lit_string s -> Printf.sprintf "%S" s

let binop_name = function
  | Ast.Op_or -> "or"
  | Ast.Op_and -> "and"
  | Ast.Op_eq -> "="
  | Ast.Op_ne -> "!="
  | Ast.Op_lt -> "<"
  | Ast.Op_le -> "<="
  | Ast.Op_gt -> ">"
  | Ast.Op_ge -> ">="
  | Ast.Op_add -> "+"
  | Ast.Op_sub -> "-"
  | Ast.Op_mul -> "*"
  | Ast.Op_div -> "div"
  | Ast.Op_idiv -> "idiv"
  | Ast.Op_mod -> "mod"
  | Ast.Op_to -> "to"
  | Ast.Op_union -> "union"
  | Ast.Op_intersect -> "intersect"
  | Ast.Op_except -> "except"

let test_to_string test = Format.asprintf "%a" Node_test.pp test

let position_suffix = function
  | None -> ""
  | Some k -> Printf.sprintf "[%d]" k

let strategy_choice_to_string = function
  | S_auto -> "auto"
  | S_fixed s -> Config.strategy_to_string s

(* Internal variables introduced by desugaring are named "#dotN";
   print them with a display-safe underscore. *)
let var_name v = String.map (function '#' -> '_' | c -> c) v

let path_to_string steps =
  String.concat ""
    (List.map
       (fun (desc, name) -> (if desc then "//" else "/") ^ name)
       steps)

let label plan =
  match plan.desc with
  | Literal l -> Printf.sprintf "literal %s" (literal_to_string l)
  | Var v -> Printf.sprintf "$%s" (var_name v)
  | Context_item -> "context-item"
  | Sequence [] -> "empty-sequence"
  | Sequence _ -> "sequence"
  | For { var; pos_var; order_by; _ } ->
      Printf.sprintf "for $%s%s%s" (var_name var)
        (match pos_var with
        | Some p -> Printf.sprintf " at $%s" (var_name p)
        | None -> "")
        (if order_by = [] then "" else " order-by")
  | Let { var; _ } -> Printf.sprintf "let $%s" (var_name var)
  | Where _ -> "where"
  | Quantified { universal; var; _ } ->
      Printf.sprintf "%s $%s" (if universal then "every" else "some")
        (var_name var)
  | If _ -> "if"
  | Binop (op, _, _) -> Printf.sprintf "binop %s" (binop_name op)
  | Unary_minus _ -> "negate"
  | Axis_step { axis; test; position; _ } ->
      Printf.sprintf "step %s::%s%s" (Axes.axis_to_string axis)
        (test_to_string test) (position_suffix position)
  | Attribute_step { test; _ } ->
      Printf.sprintf "step attribute::%s" (test_to_string test)
  | Standoff_join { op; test; position; pushdown; strategy; candidates; _ } ->
      let cand_desc =
        match candidates with
        | Some _ -> "explicit sequence"
        | None -> (
            match (pushdown, Node_test.name_filter test) with
            | true, Some n -> Printf.sprintf "elements(%s) [pushed-down]" n
            | _ -> "all-annotations [post-filter test]")
      in
      Printf.sprintf "standoff-join %s::%s%s candidates=%s strategy=%s"
        (Op.to_string op) (test_to_string test) (position_suffix position)
        cand_desc
        (strategy_choice_to_string strategy)
  | Path_lookup { steps; _ } ->
      Printf.sprintf "path-lookup %s [dataguide]" (path_to_string steps)
  | Filter _ -> "filter"
  | Attr_filter { attr; value; _ } ->
      Printf.sprintf "filter [@%s = %S] [fused]" attr value
  | Path_map _ -> "path-map"
  | Call { name = "#ddo"; _ } -> "distinct-doc-order"
  | Call { name; args } -> Printf.sprintf "call %s/%d" name (List.length args)
  | Elem_ctor { tag; _ } -> Printf.sprintf "element <%s>" tag

(* Labeled sub-plans, in display order. *)
let children plan =
  let parts label ps =
    List.filter_map
      (function Fixed _ -> None | Enclosed e -> Some (Some label, e))
      ps
  in
  match plan.desc with
  | Literal _ | Var _ | Context_item -> []
  | Sequence es -> List.map (fun e -> (None, e)) es
  | For { source; order_by; body; _ } ->
      ((Some "in", source) :: List.map (fun s -> (Some "key", s.key)) order_by)
      @ [ (Some "return", body) ]
  | Let { value; body; _ } -> [ (Some "value", value); (Some "return", body) ]
  | Where { cond; body } -> [ (Some "cond", cond); (Some "return", body) ]
  | Quantified { source; satisfies; _ } ->
      [ (Some "in", source); (Some "satisfies", satisfies) ]
  | If { cond; then_; else_ } ->
      [ (Some "cond", cond); (Some "then", then_); (Some "else", else_) ]
  | Binop (_, a, b) -> [ (None, a); (None, b) ]
  | Unary_minus e -> [ (None, e) ]
  | Axis_step { input; _ } | Attribute_step { input; _ }
  | Path_lookup { input; _ } | Attr_filter { input; _ } ->
      [ (Some "in", input) ]
  | Standoff_join { input; candidates; _ } -> (
      (Some "in", input)
      ::
      (match candidates with
      | Some c -> [ (Some "candidates", c) ]
      | None -> []))
  | Filter { input; predicate } ->
      [ (Some "in", input); (Some "pred", predicate) ]
  | Path_map { input; body } -> [ (Some "in", input); (Some "map", body) ]
  | Call { args; _ } -> List.map (fun a -> (None, a)) args
  | Elem_ctor { attrs; content; _ } ->
      List.concat_map (fun (n, ps) -> parts ("attr " ^ n) ps) attrs
      @ parts "content" content

(* Per-node aggregation of a query run, distilled from the span tree
   (one [analysis] per executed node; absent = not executed).  Produced
   by [Engine.explain_analyze] folding every span with this node's id;
   the rendered format is unchanged from when the counters lived on
   the plan nodes themselves. *)
type analysis = {
  mutable a_calls : int;
  mutable a_rows_in : int;  (** rows of the primary input (step-like ops) *)
  mutable a_rows_out : int;
  mutable a_seconds : float;  (** inclusive wall time *)
  mutable a_index_rows : int;  (** region-index rows the joins scanned *)
  mutable a_chunks : int;  (** parallel sweep chunks the joins ran *)
  mutable a_guide_rows : int;
      (** candidate pres the DataGuide probes returned (path lookups) *)
  mutable a_strategy : Config.strategy option;
      (** last strategy an auto operator resolved to *)
}

let fresh_analysis () =
  {
    a_calls = 0;
    a_rows_in = 0;
    a_rows_out = 0;
    a_seconds = 0.0;
    a_index_rows = 0;
    a_chunks = 0;
    a_guide_rows = 0;
    a_strategy = None;
  }

let analyze_suffix plan analysis =
  match analysis with
  | None -> "  (not executed)"
  | Some m ->
      let buf = Buffer.create 48 in
      Buffer.add_string buf
        (Printf.sprintf "  (calls=%d rows=%d" m.a_calls m.a_rows_out);
      let step_like =
        match plan.desc with
        | Axis_step _ | Attribute_step _ | Standoff_join _ | Filter _
        | Attr_filter _ | Path_lookup _ ->
            true
        | _ -> false
      in
      if step_like then
        Buffer.add_string buf (Printf.sprintf " rows_in=%d" m.a_rows_in);
      (match plan.desc with
      | Path_lookup { steps; _ } ->
          Buffer.add_string buf
            (Printf.sprintf " path=%s guide_rows=%d" (path_to_string steps)
               m.a_guide_rows)
      | Standoff_join _ ->
          Buffer.add_string buf (Printf.sprintf " index_rows=%d" m.a_index_rows);
          if m.a_chunks > 1 then
            Buffer.add_string buf (Printf.sprintf " chunks=%d" m.a_chunks);
          Option.iter
            (fun s ->
              Buffer.add_string buf
                (Printf.sprintf " strategy=%s" (Config.strategy_to_string s)))
            m.a_strategy
      | _ -> ());
      Buffer.add_string buf (Printf.sprintf " time=%.3fms)" (m.a_seconds *. 1e3));
      Buffer.contents buf

(* [annotate] produces the per-node suffix (EXPLAIN ANALYZE passes
   [analyze_suffix] applied to its aggregation table). *)
let render ?annotate plan =
  let buf = Buffer.create 256 in
  let rec go prefix child_prefix labelled plan =
    Buffer.add_string buf prefix;
    (match labelled with
    | Some l -> Buffer.add_string buf (l ^ ": ")
    | None -> ());
    Buffer.add_string buf (label plan);
    (match annotate with
    | Some f -> Buffer.add_string buf (f plan)
    | None -> ());
    Buffer.add_char buf '\n';
    let kids = children plan in
    let n = List.length kids in
    List.iteri
      (fun i (l, kid) ->
        let last = i = n - 1 in
        let branch = if last then "└─ " else "├─ " in
        let cont = if last then "   " else "│  " in
        go (child_prefix ^ branch) (child_prefix ^ cont) l kid)
      kids
  in
  go "" "" None plan;
  (* Drop the trailing newline: callers add their own. *)
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s
