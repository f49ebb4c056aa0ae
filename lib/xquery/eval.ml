(* The loop-lifted evaluator.  Every operator reads its operand tables
   in one forward pass along the sorted loop relation, through a
   {!Table.cursor} per operand: no per-iteration search and no
   per-iteration list.  A literal operand of a comparison or an
   arithmetic operator is atomized once and used as a constant, and an
   element constructor writes each new document straight into a
   {!Doc.builder}, copying node content column by column. *)

module Vec = Standoff_util.Vec
module Timing = Standoff_util.Timing
module Pool = Standoff_util.Pool
module Dom = Standoff_xml.Dom
module Doc = Standoff_store.Doc
module Dataguide = Standoff_store.Dataguide
module Collection = Standoff_store.Collection
module Item = Standoff_relalg.Item
module Table = Standoff_relalg.Table
module Axes = Standoff_xpath.Axes
module Node_test = Standoff_xpath.Node_test
module Step = Standoff_xpath.Step
module Config = Standoff.Config
module Op = Standoff.Op
module Catalog = Standoff.Catalog
module Join = Standoff.Join
module Trace = Standoff_obs.Trace

type env = {
  coll : Collection.t;
  catalog : Catalog.t;
  config : Config.t;
  strategy : Config.strategy option;
      (* engine-wide override; [None] lets each operator resolve its
         own strategy from annotation statistics *)
  deadline : Timing.deadline;
  trace : Trace.t option;
      (* span collector; [None] is the uninstrumented hot path.  The
         collector is single-domain: [eval]'s recursion stays on the
         calling domain (pool workers run join sweeps and index builds,
         not [eval]), so span mutation needs no locking.  The same
         holds for the run view's arena in [coll]. *)
  span : Trace.span option;
      (* the span of the plan node currently being evaluated *)
  loop : int array;
  vars : (string * Table.t) list;
  focus : focus option;
  functions : (string, Plan.function_def) Hashtbl.t;
  depth : int;
  pool : Pool.t option;
      (* parallel execution; [None] is the sequential code path *)
  arena_annots : (int, Standoff.Annots.t) Hashtbl.t;
      (* annotation tables of the arena's documents, by doc id: built
         once per run and dropped with it, never in [catalog] *)
}

and focus = {
  f_item : Table.t;
  f_pos : Table.t;
  f_last : Table.t;
}

let initial_env ~coll ~catalog ~config ~strategy ?trace ?pool
    ~deadline ~functions ~context () =
  let loop = [| 0 |] in
  let focus =
    Option.map
      (fun item ->
        {
          f_item = Table.const ~loop [ item ];
          f_pos = Table.const ~loop [ Item.Int 1L ];
          f_last = Table.const ~loop [ Item.Int 1L ];
        })
      context
  in
  {
    coll;
    catalog;
    config;
    strategy;
    deadline;
    trace;
    span = None;
    loop;
    vars = [];
    focus;
    functions;
    depth = 0;
    pool;
    arena_annots = Hashtbl.create 4;
  }

(* The annotation table of document [doc_id].  A shared document's
   table is the catalogue's; one the run constructed is extracted
   into the run's own table, so nothing of it outlives the run. *)
let annots_of env doc_id doc =
  if not (Collection.in_arena doc_id) then
    Catalog.annots env.catalog env.config doc
  else
    match Hashtbl.find_opt env.arena_annots doc_id with
    | Some a -> a
    | None ->
        let a = Standoff.Annots.extract env.config doc in
        Hashtbl.add env.arena_annots doc_id a;
        a

(* ------------------------------------------------------------------ *)
(* Environment plumbing                                               *)

let lift_focus focus ~outer_of_inner =
  Option.map
    (fun f ->
      {
        f_item = Table.lift f.f_item ~outer_of_inner;
        f_pos = Table.lift f.f_pos ~outer_of_inner;
        f_last = Table.lift f.f_last ~outer_of_inner;
      })
    focus

(* Enter a for-loop body: lift only the variables the body mentions. *)
let enter_loop env (exp : Table.expansion) ~free =
  let vars =
    List.filter_map
      (fun (name, t) ->
        if List.mem name free then
          Some (name, Table.lift t ~outer_of_inner:exp.Table.outer_of_inner)
        else None)
      env.vars
  in
  {
    env with
    loop = exp.Table.inner_loop;
    vars;
    focus = lift_focus env.focus ~outer_of_inner:exp.Table.outer_of_inner;
  }

(* [keep] is a sub-array of [env.loop]: keeping all of it keeps
   every table as it is. *)
let restrict_env env ~keep =
  if Array.length keep = Array.length env.loop then env
  else
    let restrict t = Table.restrict t ~keep in
    {
      env with
      loop = keep;
      vars = List.map (fun (n, t) -> (n, restrict t)) env.vars;
      focus =
        Option.map
          (fun f ->
            {
              f_item = restrict f.f_item;
              f_pos = restrict f.f_pos;
              f_last = restrict f.f_last;
            })
          env.focus;
    }

(* ------------------------------------------------------------------ *)
(* Per-iteration helpers                                              *)

(* [c]'s current group of [t] as at most one item. *)
let singleton what t (c : Table.cursor) =
  match c.Table.hi - c.Table.lo with
  | 0 -> None
  | 1 -> Some (Table.item_at t c.Table.lo)
  | _ -> Err.raisef "%s expects at most one item per iteration" what

(* The effective boolean value of [c]'s current group of [t]: a node
   sequence is true when it is non-empty. *)
let ebv_group env t (c : Table.cursor) =
  let n = c.Table.hi - c.Table.lo in
  match t.Table.col with
  | Table.Nodes _ -> n > 0
  | Table.Items items -> (
      match n with
      | 0 -> false
      | 1 -> Atomic.effective_boolean_value_item items.(c.Table.lo)
      | _ -> (
          match items.(c.Table.lo) with
          | Item.Node _ | Item.Attribute _ -> true
          | _ -> Atomic.effective_boolean_value env.coll (Table.group_list t c)))

let ebv_mask env t =
  let c = Table.cursor t in
  Array.map
    (fun iter ->
      Table.seek c iter;
      ebv_group env t c)
    env.loop

let loop_where env mask value =
  let keep = Vec.create () in
  Array.iteri (fun i iter -> if mask.(i) = value then Vec.push keep iter) env.loop;
  Vec.to_array keep

let bool_table env mask =
  Table.make (Array.copy env.loop)
    (Array.map (fun b -> Item.Bool b) mask)

(* [t]'s node keys, or [fail] applied to its first row that is not a
   node. *)
let node_keys_or t fail =
  match Table.node_keys t with
  | Some keys -> keys
  | None ->
      let rec first r =
        match Table.item_at t r with Item.Node _ -> first (r + 1) | item -> item
      in
      fail (first 0)

(* A comparison or arithmetic operand: a literal, atomized once, or a
   table atomized row by row, read along the loop. *)
type operand =
  | Const of Atomic.t
  | Column of Atomic.t array * Table.cursor

let atomic_of_literal = function
  | Ast.Lit_int i -> Atomic.A_int i
  | Ast.Lit_float f -> Atomic.A_float f
  | Ast.Lit_string s -> Atomic.A_str s

(* ------------------------------------------------------------------ *)
(* StandOff joins                                                     *)

(* Partition context rows per document, keeping for each document both
   the (iter, pre) rows and the set of live iterations (needed by the
   reject operators: an iteration whose context has no annotations
   still designates the fragment).

   Physical-operator knobs (decided by the optimizer, carried on the
   plan node):
   - [pushdown]: restrict the candidate region index to elements
     matching the name test before the join, instead of joining
     against every area-annotation and post-filtering (§4.3).  The
     post-filter below always runs, so a plan without pushdown is
     still correct — just slower.
   - [strategy]: [S_fixed] uses that algorithm; [S_auto] defers to the
     engine-wide override if any, else picks per document from the
     context and candidate sizes.
   [span] receives the join statistics as trace attributes. *)
let standoff_step env ?span ~strategy_choice ~pushdown op test context =
  let shards =
    (* Attribute rows have no area: they join nothing. *)
    try Step.partition_by_doc context ~keep_attribute_owner:false
    with Step.Not_a_node item ->
      Err.raisef "%s:: applied to a non-node item %s" (Op.to_string op)
        (Item.to_string item)
  in
  (* Per-document shards: annotation tables, candidate indexes and
     strategies resolve sequentially (they touch lazily built shared
     state), then the joins — the expensive part — run one shard per
     document, in parallel when a pool is available.  StandOff steps
     match only nodes from the same fragment (§3.3), so sharding on
     the document is semantics-preserving, and concatenating shard
     tables in ascending doc-id order restores global document
     order. *)
  let prepped =
    Array.map
      (fun (doc_id, context_iters, context_pres) ->
        let doc = Collection.doc env.coll doc_id in
        let annots = annots_of env doc_id doc in
        let name = if pushdown then Node_test.name_filter test else None in
        let strategy =
          match strategy_choice with
          | Plan.S_fixed s -> s
          | Plan.S_auto -> (
              match env.strategy with
              | Some s -> s
              | None ->
                  Join.auto_strategy annots
                    ~context_rows:(Array.length context_pres)
                    ~candidate_rows:
                      (Option.map
                         (fun n -> Array.length (Doc.elements_named doc n))
                         name))
        in
        let candidates =
          match name with Some n -> Join.Named n | None -> Join.All
        in
        let stats =
          match span with Some _ -> Some (Join.fresh_stats ()) | None -> None
        in
        (doc_id, doc, annots, context_iters, context_pres, candidates,
         strategy, stats))
      (Array.of_list shards)
  in
  let run_shard
      (doc_id, doc, annots, context_iters, context_pres, candidates, strategy,
       stats) =
    (* The distinct iters present in this document's context. *)
    let loop = Table.distinct context_iters in
    let iters, pres =
      Join.run_lifted op strategy annots ?pool:env.pool ~deadline:env.deadline
        ?stats ~loop ~context_iters ~context_pres ~candidates ()
    in
    match candidates with
    | Join.Named _ ->
        (* The name test was pushed into the candidates: every row
           already passes it. *)
        Table.of_nodes iters (Table.keys_of_pres ~doc_id pres)
    | Join.All | Join.Pres _ ->
        (* Otherwise the node test filters here (kind tests cannot be
           pushed at all), compacting in place. *)
        let n = Array.length pres in
        let out_iters = Array.make n 0 and keys = Array.make n 0 in
        let k = ref 0 in
        Array.iteri
          (fun r pre ->
            if Node_test.matches doc test pre then begin
              out_iters.(!k) <- iters.(r);
              keys.(!k) <- Table.key ~doc_id ~pre;
              incr k
            end)
          pres;
        if !k = n then Table.of_nodes out_iters keys
        else Table.of_nodes (Array.sub out_iters 0 !k) (Array.sub keys 0 !k)
  in
  let tables =
    match env.pool with
    | Some p when Pool.jobs p > 1 && Array.length prepped > 1 ->
        Pool.map_array p run_shard prepped
    | _ -> Array.map run_shard prepped
  in
  (* Instrumentation folds in after the (possibly parallel) shards so
     the trace span is only ever mutated from this domain. *)
  (match span with
  | Some sp ->
      Array.iter
        (fun (_, _, _, _, _, _, strategy, stats) ->
          match stats with
          | Some s ->
              Trace.add_int sp "index_rows" s.Join.s_index_rows;
              Trace.add_int sp "chunks" s.Join.s_chunks;
              Trace.set_str sp "strategy" (Config.strategy_to_string strategy)
          | None -> ())
        prepped
  | None -> ());
  Table.concat (Array.to_list tables)

(* ------------------------------------------------------------------ *)
(* Element construction                                               *)

(* An evaluated constructor part: fixed text, or a table read along
   the loop with its own cursor. *)
type part = Fixed of string | Rows of Table.t * Table.cursor

let seek_part iter = function
  | Fixed _ -> ()
  | Rows (_, c) -> Table.seek c iter

(* One new element per iteration, written straight into a document
   builder.  Attribute items in the content belong to the element, so
   they are added before its children; adjacent atomic values merge
   into one text node separated by spaces; nodes are deep-copied. *)
let construct_element env b ~tag ~attrs ~content iter =
  List.iter (fun (_, parts) -> List.iter (seek_part iter) parts) attrs;
  List.iter (seek_part iter) content;
  let string_of_item item =
    Atomic.atomic_to_string (Atomic.atomize env.coll item)
  in
  Doc.open_element b tag;
  List.iter
    (fun (name, parts) ->
      let value =
        String.concat ""
          (List.map
             (function
               | Fixed s -> s
               | Rows (t, c) ->
                   String.concat " "
                     (List.init (c.Table.hi - c.Table.lo) (fun k ->
                          string_of_item (Table.item_at t (c.Table.lo + k)))))
             parts)
      in
      Doc.add_attribute b name value)
    attrs;
  List.iter
    (function
      | Fixed _ -> ()
      | Rows ({ Table.col = Table.Nodes _; _ }, _) -> ()
      | Rows ({ Table.col = Table.Items items; _ }, c) ->
          for r = c.Table.lo to c.Table.hi - 1 do
            match items.(r) with
            | Item.Attribute (_, name, value) -> Doc.add_attribute b name value
            | _ -> ()
          done)
    content;
  let pending = Buffer.create 16 in
  let pending_nonempty = ref false in
  let flush () =
    if !pending_nonempty then begin
      Doc.add_text b (Buffer.contents pending);
      Buffer.clear pending;
      pending_nonempty := false
    end
  in
  List.iter
    (function
      | Fixed s -> if not (Dom.is_ws_only s) then Doc.add_text b s
      | Rows ({ Table.col = Table.Nodes keys; _ }, c) ->
          for r = c.Table.lo to c.Table.hi - 1 do
            let k = keys.(r) in
            Doc.copy_node b
              (Collection.doc env.coll (Table.key_doc k))
              (Table.key_pre k)
          done
      | Rows ({ Table.col = Table.Items items; _ }, c) ->
          for r = c.Table.lo to c.Table.hi - 1 do
            match items.(r) with
            | Item.Node n ->
                flush ();
                Doc.copy_node b
                  (Collection.doc env.coll n.Collection.doc_id)
                  n.Collection.pre
            | Item.Attribute _ -> ()
            | (Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _) as item ->
                if !pending_nonempty then Buffer.add_char pending ' ';
                Buffer.add_string pending (string_of_item item);
                pending_nonempty := true
          done;
          flush ())
    content;
  Doc.close_element b;
  (* The new document goes to the run's arena, never to the shared
     collection; it has no name anyone can look up. *)
  let doc = Doc.finish b ~name:"#constructed" in
  Table.key ~doc_id:(Collection.add_constructed env.coll doc) ~pre:1

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)

let rec eval env (plan : Plan.t) =
  Timing.checkpoint env.deadline;
  (* Dead iteration scopes evaluate to nothing without touching the
     plan.  Besides saving work, this is what lets recursive user
     functions terminate: the recursive branch of a conditional runs
     under the loop restricted to the iterations that took it, which
     eventually is empty.  Instrumentation skips them too, so EXPLAIN
     ANALYZE reports dead branches as not executed. *)
  if Array.length env.loop = 0 then Table.empty
  else
    match env.trace with
    | None -> eval_live env plan
    | Some tr ->
        (* One span per operator evaluation, tagged with the plan-node
           id for EXPLAIN ANALYZE aggregation.  [Fun.protect] closes
           the span on the way out even when the evaluation dies
           (deadline, evaluation error), so partial traces stay
           well-formed. *)
        let span = Trace.enter tr ~node:plan.Plan.id (Plan.label plan) in
        Fun.protect
          ~finally:(fun () -> Trace.exit tr span)
          (fun () ->
            let out = eval_live { env with span = Some span } plan in
            Trace.set_int span "rows_out" (Table.row_count out);
            out)

and record_rows_in env input =
  match env.span with
  | Some sp -> Trace.set_int sp "rows_in" (Table.row_count input)
  | None -> ()

and eval_live env (plan : Plan.t) =
  match plan.Plan.desc with
  | Plan.Literal (Ast.Lit_int i) -> Table.const ~loop:env.loop [ Item.Int i ]
  | Plan.Literal (Ast.Lit_float f) -> Table.const ~loop:env.loop [ Item.Float f ]
  | Plan.Literal (Ast.Lit_string s) -> Table.const ~loop:env.loop [ Item.Str s ]
  | Plan.Var v -> (
      match List.assoc_opt v env.vars with
      | Some t -> t
      | None -> Err.raisef "unbound variable $%s" v)
  | Plan.Context_item -> (
      match env.focus with
      | Some f -> f.f_item
      | None -> Err.raisef "no context item is defined here")
  | Plan.Sequence es -> Table.concat (List.map (eval env) es)
  | Plan.For { var; pos_var; source; order_by; body } ->
      let src = eval env source in
      let exp = Table.expand src in
      let free =
        List.sort_uniq compare
          (Plan.free_vars body
          @ List.concat_map (fun s -> Plan.free_vars s.Plan.key) order_by)
      in
      let env' = enter_loop env exp ~free in
      let vars = (var, exp.Table.var_table) :: env'.vars in
      let vars =
        match pos_var with
        | Some p -> (p, exp.Table.pos_table) :: vars
        | None -> vars
      in
      let env' = { env' with vars } in
      let out = eval env' body in
      if order_by = [] then
        Table.backmap out ~outer_of_inner:exp.Table.outer_of_inner
      else
        reorder_for env' exp out order_by
  | Plan.Let { var; value; body } ->
      let v = eval env value in
      eval { env with vars = (var, v) :: env.vars } body
  | Plan.Where { cond; body } ->
      let mask = ebv_mask env (eval env cond) in
      let keep = loop_where env mask true in
      eval (restrict_env env ~keep) body
  | Plan.Quantified { universal; var; source; satisfies } ->
      let src = eval env source in
      let exp = Table.expand src in
      let free = Plan.free_vars satisfies in
      let env' = enter_loop env exp ~free in
      let env' = { env' with vars = (var, exp.Table.var_table) :: env'.vars } in
      let sat = eval env' satisfies in
      let inner_mask = ebv_mask env' sat in
      (* Fold the inner verdicts back onto the outer loop. *)
      let verdict = Array.map (fun _ -> universal) env.loop in
      let i = ref 0 in
      Array.iteri
        (fun inner outer ->
          while env.loop.(!i) < outer do
            incr i
          done;
          let i = !i in
          if universal then
            verdict.(i) <- verdict.(i) && inner_mask.(inner)
          else verdict.(i) <- verdict.(i) || inner_mask.(inner))
        exp.Table.outer_of_inner;
      bool_table env verdict
  | Plan.If { cond; then_; else_ } ->
      let mask = ebv_mask env (eval env cond) in
      let keep_t = loop_where env mask true in
      let keep_f = loop_where env mask false in
      let t = eval (restrict_env env ~keep:keep_t) then_ in
      let f = eval (restrict_env env ~keep:keep_f) else_ in
      Table.append2 t f
  | Plan.Binop (op, a, b) -> eval_binop env op a b
  | Plan.Unary_minus e ->
      let t = eval env e in
      let b = Table.builder () and c = Table.cursor t in
      Array.iter
        (fun iter ->
          Table.seek c iter;
          match singleton "unary minus" t c with
          | None -> ()
          | Some item ->
              Table.push b iter
                (Atomic.to_item (Atomic.negate (Atomic.atomize env.coll item))))
        env.loop;
      Table.build b
  | Plan.Axis_step { input; axis; test; position } -> (
      let ctx = eval env input in
      record_rows_in env ctx;
      try Step.axis_step env.coll axis ?position ~test ctx
      with Step.Not_a_node item ->
        Err.raisef "axis step applied to non-node %s" (Item.to_string item))
  | Plan.Attribute_step { input; test } ->
      let ctx = eval env input in
      record_rows_in env ctx;
      Step.attribute_step env.coll ~test ctx
  | Plan.Path_lookup { input; steps } ->
      (* One DataGuide probe answers the whole collapsed path per
         document.  The input evaluates to document nodes only (the
         optimizer collapses over doc()/root() sources exclusively),
         so per context row the matches are the probe's sorted
         duplicate-free pre list verbatim. *)
      let ctx = eval env input in
      record_rows_in env ctx;
      let per_doc : (int, int array) Hashtbl.t = Hashtbl.create 4 in
      let lookup doc_id =
        match Hashtbl.find_opt per_doc doc_id with
        | Some pres -> pres
        | None ->
            let doc = Collection.doc env.coll doc_id in
            let generation = Catalog.generation env.catalog doc.Doc.doc_name in
            let guide = Dataguide.get ~generation doc in
            let pres = Dataguide.lookup doc guide steps in
            Hashtbl.add per_doc doc_id pres;
            pres
      in
      let b = Table.builder () in
      let total = ref 0 in
      let not_a_document item =
        Err.raisef "path lookup applied to non-document item %s"
          (Item.to_string item)
      in
      Array.iteri
        (fun r k ->
          if Table.key_pre k <> 0 then not_a_document (Table.item_at ctx r);
          let doc_id = Table.key_doc k in
          let pres = lookup doc_id in
          total := !total + Array.length pres;
          Array.iter
            (fun pre -> Table.push_node b (Table.iter_at ctx r) (Table.key ~doc_id ~pre))
            pres)
        (node_keys_or ctx not_a_document);
      (match env.span with
      | Some sp ->
          Trace.set_str sp "path" (Plan.path_to_string steps);
          Trace.add_int sp "guide_rows" !total
      | None -> ());
      Table.build b
  | Plan.Standoff_join
      { input; op; test; position; pushdown; strategy; candidates } ->
      let ctx = eval env input in
      record_rows_in env ctx;
      let span = env.span in
      let joined =
        match candidates with
        | None ->
            standoff_step env ?span ~strategy_choice:strategy ~pushdown op test
              ctx
        | Some cand_plan ->
            let cand = eval env cand_plan in
            standoff_function env ?span ~strategy_choice:strategy op test ctx
              cand
      in
      (match position with
      | None -> joined
      | Some k -> Step.positional joined k)
  | Plan.Filter { input; predicate } -> eval_filter env input predicate
  | Plan.Attr_filter { input; attr; value } ->
      let t = eval env input in
      record_rows_in env t;
      Step.attribute_filter env.coll ~attr ~value t
  | Plan.Path_map { input; body } ->
      let t = eval env input in
      let exp = Table.expand t in
      let free = Plan.free_vars body in
      let env' = enter_loop env exp ~free in
      let env' =
        {
          env' with
          focus =
            Some
              {
                f_item = exp.Table.var_table;
                f_pos = exp.Table.pos_table;
                f_last = Table.expand_last t;
              };
        }
      in
      let out = eval env' body in
      let back = Table.backmap out ~outer_of_inner:exp.Table.outer_of_inner in
      (* A path result that is all nodes is deduplicated in document
         order; sequences of atomic values keep their order. *)
      let all_nodes =
        match back.Table.col with
        | Table.Nodes _ -> true
        | Table.Items items -> Array.for_all Item.is_node items
      in
      if all_nodes then Table.distinct_doc_order back else back
  | Plan.Call { name; args } -> eval_call env name args
  | Plan.Elem_ctor { tag; attrs; content } ->
      let eval_part = function
        | Plan.Fixed s -> Fixed s
        | Plan.Enclosed e ->
            let t = eval env e in
            Rows (t, Table.cursor t)
      in
      let attrs =
        List.map (fun (n, parts) -> (n, List.map eval_part parts)) attrs
      in
      let content = List.map eval_part content in
      let b = Doc.builder () in
      Table.of_nodes (Array.copy env.loop)
        (Array.map (construct_element env b ~tag ~attrs ~content) env.loop)

(* ---------------- order by ---------------- *)

(* Reorder the for-loop's iterations per outer group according to the
   sort keys, then map the body's results back in that order.  Each key
   evaluates to at most one atomic per iteration; absent keys sort
   first (XQuery's default "empty least"). *)
and reorder_for env' (exp : Table.expansion) out order_by =
  let n = Array.length exp.Table.inner_loop in
  let keys =
    List.map
      (fun spec ->
        let t = eval env' spec.Plan.key in
        let column = Array.make n None in
        let c = Table.cursor t in
        Array.iter
          (fun inner ->
            Table.seek c inner;
            match singleton "order by key" t c with
            | None -> ()
            | Some item ->
                column.(inner) <- Some (Atomic.atomize env'.coll item))
          exp.Table.inner_loop;
        (column, spec.Plan.descending))
      order_by
  in
  let perm = Array.init n Fun.id in
  let compare_inner a b =
    let c = compare exp.Table.outer_of_inner.(a) exp.Table.outer_of_inner.(b) in
    if c <> 0 then c
    else
      let rec by_keys = function
        | [] -> compare a b (* stable: input order breaks ties *)
        | (column, descending) :: rest ->
            let c =
              match (column.(a), column.(b)) with
              | None, None -> 0
              | None, Some _ -> -1
              | Some _, None -> 1
              | Some x, Some y -> Atomic.order_compare x y
            in
            let c = if descending then -c else c in
            if c <> 0 then c else by_keys rest
      in
      by_keys keys
  in
  Array.sort compare_inner perm;
  (* [perm] visits the inner iterations out of order: read [out]
     through its group offsets. *)
  let first = Table.offsets out ~n in
  let b = Table.builder () in
  Array.iter
    (fun inner ->
      for r = first.(inner) to first.(inner + 1) - 1 do
        Table.push_row b exp.Table.outer_of_inner.(inner) out r
      done)
    perm;
  Table.build b

(* ---------------- binary operators ---------------- *)

and eval_binop env op a b =
  match op with
  | Ast.Op_or | Ast.Op_and ->
      let m1 = ebv_mask env (eval env a) in
      let m2 = ebv_mask env (eval env b) in
      let combine = if op = Ast.Op_or then ( || ) else ( && ) in
      bool_table env (Array.map2 combine m1 m2)
  | Ast.Op_eq | Ast.Op_ne | Ast.Op_lt | Ast.Op_le | Ast.Op_gt | Ast.Op_ge ->
      let cmp =
        match op with
        | Ast.Op_eq -> Atomic.Ceq
        | Ast.Op_ne -> Atomic.Cne
        | Ast.Op_lt -> Atomic.Clt
        | Ast.Op_le -> Atomic.Cle
        | Ast.Op_gt -> Atomic.Cgt
        | _ -> Atomic.Cge
      in
      let o1 = operand env a and o2 = operand env b in
      let test = Atomic.compare_atomics cmp in
      (* General comparison: existential over both sequences, left
         operand outermost. *)
      let any (c : Table.cursor) f =
        let rec go r = r < c.Table.hi && (f r || go (r + 1)) in
        go c.Table.lo
      in
      let mask =
        match (o1, o2) with
        | Const x, Const y ->
            let v = test x y in
            Array.map (fun _ -> v) env.loop
        | Column (xs, c), Const y ->
            Array.map
              (fun iter ->
                Table.seek c iter;
                any c (fun r -> test xs.(r) y))
              env.loop
        | Const x, Column (ys, c) ->
            Array.map
              (fun iter ->
                Table.seek c iter;
                any c (fun r -> test x ys.(r)))
              env.loop
        | Column (xs, c1), Column (ys, c2) ->
            Array.map
              (fun iter ->
                Table.seek c1 iter;
                Table.seek c2 iter;
                any c1 (fun r -> any c2 (fun k -> test xs.(r) ys.(k))))
              env.loop
      in
      bool_table env mask
  | Ast.Op_add | Ast.Op_sub | Ast.Op_mul | Ast.Op_div | Ast.Op_idiv
  | Ast.Op_mod ->
      let arith =
        match op with
        | Ast.Op_add -> Atomic.Add
        | Ast.Op_sub -> Atomic.Sub
        | Ast.Op_mul -> Atomic.Mul
        | Ast.Op_div -> Atomic.Div
        | Ast.Op_idiv -> Atomic.Idiv
        | _ -> Atomic.Mod
      in
      let o1 = operand env a and o2 = operand env b in
      let value iter = function
        | Const x -> Some x
        | Column (xs, c) -> (
            Table.seek c iter;
            match c.Table.hi - c.Table.lo with
            | 0 -> None
            | 1 -> Some xs.(c.Table.lo)
            | _ -> Err.raisef "arithmetic expects at most one item per iteration")
      in
      let b = Table.builder () in
      Array.iter
        (fun iter ->
          let y = value iter o2 in
          match (value iter o1, y) with
          | Some x, Some y ->
              Table.push b iter (Atomic.to_item (Atomic.arithmetic arith x y))
          | _ -> () (* empty operand -> empty result *))
        env.loop;
      Table.build b
  | Ast.Op_to ->
      let t1 = eval env a and t2 = eval env b in
      let c1 = Table.cursor t1 and c2 = Table.cursor t2 in
      let b = Table.builder () in
      Array.iter
        (fun iter ->
          let bound what t c =
            Table.seek c iter;
            match singleton "range" t c with
            | None -> None
            | Some item -> (
                match Atomic.to_number (Atomic.atomize env.coll item) with
                | Atomic.A_int i -> Some i
                | _ -> Err.raisef "range %s must be an integer" what)
          in
          let hi = bound "end" t2 c2 in
          match (bound "start" t1 c1, hi) with
          | Some lo, Some hi ->
              if Int64.sub hi lo > 10_000_000L then
                Err.raisef "range %Ld to %Ld is too large" lo hi;
              let i = ref lo in
              while Int64.compare !i hi <= 0 do
                Table.push b iter (Item.Int !i);
                i := Int64.add !i 1L
              done
          | _ -> ())
        env.loop;
      Table.build b
  | Ast.Op_union ->
      let t = Table.append2 (eval env a) (eval env b) in
      (try Table.distinct_doc_order t
       with Invalid_argument _ ->
         Err.raisef "union operands must be node sequences")
  | Ast.Op_intersect | Ast.Op_except ->
      let t1 = eval env a and t2 = eval env b in
      let keep_if_in_t2 = op = Ast.Op_intersect in
      (match t1.Table.col with
      | Table.Items items when not (Array.for_all Item.is_node items) ->
          Err.raisef "set operation operands must be node sequences"
      | _ -> ());
      let same =
        match (t1.Table.col, t2.Table.col) with
        | Table.Nodes k1, Table.Nodes k2 -> fun r k -> k1.(r) = k2.(k)
        | _ -> fun r k -> Item.equal (Table.item_at t1 r) (Table.item_at t2 k)
      in
      let c1 = Table.cursor t1 and c2 = Table.cursor t2 in
      let b = Table.builder () in
      Array.iter
        (fun iter ->
          Table.seek c1 iter;
          Table.seek c2 iter;
          for r = c1.Table.lo to c1.Table.hi - 1 do
            let rec present k = k < c2.Table.hi && (same r k || present (k + 1)) in
            if present c2.Table.lo = keep_if_in_t2 then Table.push_row b iter t1 r
          done)
        env.loop;
      Table.distinct_doc_order (Table.build b)

(* A comparison or arithmetic operand: a literal is atomized once, any
   other plan is evaluated and atomized row by row. *)
and operand env (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Literal l -> Const (atomic_of_literal l)
  | _ ->
      let t = eval env p in
      Column
        ( Array.init (Table.row_count t) (fun r ->
              Atomic.atomize env.coll (Table.item_at t r)),
          Table.cursor t )

(* ---------------- predicates ---------------- *)

and eval_filter env input predicate =
  let t = eval env input in
  record_rows_in env t;
  let exp = Table.expand t in
  let free = Plan.free_vars predicate in
  let env' = enter_loop env exp ~free in
  (* Focus: the filtered item, its position, and the size of its
     iteration's sequence. *)
  let focus =
    Some
      {
        f_item = exp.Table.var_table;
        f_pos = exp.Table.pos_table;
        f_last = Table.expand_last t;
      }
  in
  let env' = { env' with focus } in
  let p = eval env' predicate in
  let b = Table.builder () and c = Table.cursor p in
  Array.iteri
    (fun inner outer ->
      Table.seek c inner;
      let position () =
        match Table.item_at exp.Table.pos_table inner with
        | Item.Int pos -> pos
        | _ -> assert false
      in
      let verdict =
        match p.Table.col with
        | Table.Items items when c.Table.hi - c.Table.lo = 1 -> (
            match items.(c.Table.lo) with
            | Item.Int n -> Int64.equal (position ()) n (* positional predicate *)
            | Item.Float f -> Float.equal (Int64.to_float (position ())) f
            | item -> Atomic.effective_boolean_value_item item)
        | _ -> ebv_group env p c
      in
      if verdict then Table.push_row b outer exp.Table.var_table inner)
    exp.Table.outer_of_inner;
  Table.build b

(* ---------------- function calls ---------------- *)

(* The area of a node item under the current standoff configuration. *)
and area_of_item env item =
  match item with
  | Item.Node n ->
      let doc = Collection.doc env.coll n.Collection.doc_id in
      let annots = annots_of env n.Collection.doc_id doc in
      Option.map
        (fun area -> (n, area))
        (Standoff.Annots.area_of annots n.Collection.pre)
  | Item.Attribute _ | Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _ ->
      None

and eval_call env name args =
  let local =
    match String.index_opt name ':' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match Hashtbl.find_opt env.functions name with
  | Some fn -> apply_udf env fn args
  | None -> (
      match Hashtbl.find_opt env.functions local with
      | Some fn -> apply_udf env fn args
      | None -> eval_builtin env local args)

and apply_udf env fn args =
  if env.depth > 1024 then
    Err.raisef
      "function %s: recursion depth exceeded (does the recursion terminate?)"
      fn.Plan.fn_name;
  if List.length args <> List.length fn.Plan.fn_params then
    Err.raisef "function %s expects %d arguments, got %d" fn.Plan.fn_name
      (List.length fn.Plan.fn_params) (List.length args);
  let bindings =
    List.map2 (fun p a -> (p, eval env a)) fn.Plan.fn_params args
  in
  (* The body sees only its parameters (functions have no closure over
     query variables), plus the focus-free top environment. *)
  eval
    { env with vars = bindings; focus = None; depth = env.depth + 1 }
    fn.Plan.fn_body

and eval_builtin env name args =
  let argc = List.length args in
  let arg n = List.nth args n in
  let eval1 () = eval env (arg 0) in
  (* An argument table read along the loop, one iteration at a time:
     [single what t] gives each iteration's item (at most one), [group t]
     its whole sequence, [per_iter_strings t] the item's string value. *)
  let single what t =
    let c = Table.cursor t in
    fun iter ->
      Table.seek c iter;
      singleton what t c
  in
  let group t =
    let c = Table.cursor t in
    fun iter ->
      Table.seek c iter;
      Table.group_list t c
  in
  let per_iter_strings t =
    let get = single name t in
    fun iter -> Option.map (Atomic.string_value env.coll) (get iter)
  in
  match (name, argc) with
  | "#ddo", 1 -> (
      try Table.distinct_doc_order (eval1 ())
      with Invalid_argument _ ->
        Err.raisef "path steps must produce node sequences")
  | "doc", 1 ->
      let t = eval1 () in
      let get = per_iter_strings t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          match get iter with
          | None -> ()
          | Some uri -> (
              match Collection.doc_id_of_name env.coll uri with
              | Some doc_id ->
                  Table.push_node rows iter (Table.key ~doc_id ~pre:0)
              | None -> Err.raisef "doc(%S): no such document" uri))
        env.loop;
      Table.build rows
  | "root", 1 ->
      let t = eval1 () in
      let rows = Table.builder () in
      for r = 0 to Table.row_count t - 1 do
        let doc_id =
          match t.Table.col with
          | Table.Nodes keys -> Table.key_doc keys.(r)
          | Table.Items items -> (
              match items.(r) with
              | Item.Node n | Item.Attribute (n, _, _) -> n.Collection.doc_id
              | _ -> Err.raisef "root(): not a node")
        in
        Table.push_node rows (Table.iter_at t r) (Table.key ~doc_id ~pre:0)
      done;
      Table.distinct_doc_order (Table.build rows)
  | "count", 1 -> Table.count ~loop:env.loop (eval1 ())
  | "exists", 1 -> Table.exists ~loop:env.loop (eval1 ())
  | "empty", 1 ->
      Table.map_items
        (function Item.Bool b -> Item.Bool (not b) | x -> x)
        (Table.exists ~loop:env.loop (eval1 ()))
  | "not", 1 ->
      let mask = ebv_mask env (eval1 ()) in
      bool_table env (Array.map not mask)
  | "boolean", 1 -> bool_table env (ebv_mask env (eval1 ()))
  | "true", 0 -> Table.const ~loop:env.loop [ Item.Bool true ]
  | "false", 0 -> Table.const ~loop:env.loop [ Item.Bool false ]
  | "position", 0 -> (
      match env.focus with
      | Some f -> f.f_pos
      | None -> Err.raisef "position(): no context")
  | "last", 0 -> (
      match env.focus with
      | Some f -> f.f_last
      | None -> Err.raisef "last(): no context")
  | "string", 0 -> (
      match env.focus with
      | Some f ->
          Table.map_items
            (fun item -> Item.Str (Atomic.string_value env.coll item))
            f.f_item
      | None -> Err.raisef "string(): no context")
  | "string", 1 ->
      let get = single "string" (eval1 ()) in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let s =
            match get iter with
            | None -> ""
            | Some item -> Atomic.string_value env.coll item
          in
          Table.push rows iter (Item.Str s))
        env.loop;
      Table.build rows
  | "data", 1 ->
      Table.map_items
        (fun item -> Atomic.to_item (Atomic.atomize env.coll item))
        (eval1 ())
  | "number", 1 ->
      Table.map_items
        (fun item ->
          Atomic.to_item (Atomic.to_number (Atomic.atomize env.coll item)))
        (eval1 ())
  | ("name" | "local-name"), 1 ->
      let get = single name (eval1 ()) in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let s =
            match get iter with
            | None -> ""
            | Some (Item.Node n) ->
                let doc = Collection.doc env.coll n.Collection.doc_id in
                Option.value ~default:"" (Doc.name_of doc n.Collection.pre)
            | Some (Item.Attribute (_, a, _)) -> a
            | Some _ -> Err.raisef "%s(): not a node" name
          in
          Table.push rows iter (Item.Str s))
        env.loop;
      Table.build rows
  | "concat", _ when argc >= 2 ->
      let tables = List.map (fun a -> single "concat" (eval env a)) args in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let parts =
            List.map
              (fun get ->
                match get iter with
                | None -> ""
                | Some item -> Atomic.string_value env.coll item)
              tables
          in
          Table.push rows iter (Item.Str (String.concat "" parts)))
        env.loop;
      Table.build rows
  | "string-join", 2 ->
      let t = eval1 () and sep_t = eval env (arg 1) in
      let items = group t and sep_of = single "string-join" sep_t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let sep =
            match sep_of iter with
            | None -> ""
            | Some item -> Atomic.string_value env.coll item
          in
          let parts = List.map (Atomic.string_value env.coll) (items iter) in
          Table.push rows iter (Item.Str (String.concat sep parts)))
        env.loop;
      Table.build rows
  | "contains", 2 | "starts-with", 2 ->
      let t1 = eval1 () and t2 = eval env (arg 1) in
      let g1 = per_iter_strings t1 and g2 = per_iter_strings t2 in
      let mask =
        Array.map
          (fun iter ->
            let s1 = Option.value ~default:"" (g1 iter) in
            let s2 = Option.value ~default:"" (g2 iter) in
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec scan i =
                i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
              in
              nn = 0 || scan 0
            in
            if name = "contains" then contains s1 s2
            else
              String.length s2 <= String.length s1
              && String.sub s1 0 (String.length s2) = s2)
          env.loop
      in
      bool_table env mask
  | "string-length", 1 ->
      let t = eval1 () in
      let g = per_iter_strings t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          Table.push rows iter (Item.Int (Int64.of_int (String.length s))))
        env.loop;
      Table.build rows
  | "substring", (2 | 3) ->
      let t = eval1 () and start_t = eval env (arg 1) in
      let len_t = if argc = 3 then Some (eval env (arg 2)) else None in
      let g = per_iter_strings t in
      let start_of = single "substring" start_t in
      let len_of = Option.map (single "substring") len_t in
      let num get iter =
        match get iter with
        | None -> Err.raisef "substring: missing argument"
        | Some item -> (
            match Atomic.to_number (Atomic.atomize env.coll item) with
            | Atomic.A_int i -> Int64.to_int i
            | Atomic.A_float f -> int_of_float (Float.round f)
            | _ -> assert false)
      in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          let start = max 1 (num start_of iter) in
          let len =
            match len_of with
            | None -> String.length s - start + 1
            | Some get -> num get iter
          in
          let lo = start - 1 in
          let len = max 0 (min len (String.length s - lo)) in
          let sub = if lo >= String.length s then "" else String.sub s lo len in
          Table.push rows iter (Item.Str sub))
        env.loop;
      Table.build rows
  | ("sum" | "min" | "max" | "avg"), 1 ->
      let items = group (eval1 ()) in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let nums =
            List.map
              (fun item -> Atomic.to_number (Atomic.atomize env.coll item))
              (items iter)
          in
          let float_of = function
            | Atomic.A_int i -> Int64.to_float i
            | Atomic.A_float f -> f
            | _ -> assert false
          in
          match (name, nums) with
          | "sum", [] -> Table.push rows iter (Item.Int 0L)
          | _, [] -> ()
          | "sum", nums ->
              let all_int =
                List.for_all (function Atomic.A_int _ -> true | _ -> false) nums
              in
              if all_int then
                let s =
                  List.fold_left
                    (fun acc -> function
                      | Atomic.A_int i -> Int64.add acc i
                      | _ -> acc)
                    0L nums
                in
                Table.push rows iter (Item.Int s)
              else
                let s = List.fold_left (fun acc n -> acc +. float_of n) 0.0 nums in
                Table.push rows iter (Item.Float s)
          | "avg", nums ->
              let s = List.fold_left (fun acc n -> acc +. float_of n) 0.0 nums in
              Table.push rows iter (Item.Float (s /. float_of_int (List.length nums)))
          | op, first :: rest ->
              let better a b =
                let c = Float.compare (float_of a) (float_of b) in
                if op = "min" then c <= 0 else c >= 0
              in
              let best =
                List.fold_left (fun acc n -> if better acc n then acc else n) first rest
              in
              Table.push rows iter (Atomic.to_item best))
        env.loop;
      Table.build rows
  | ("abs" | "floor" | "ceiling" | "round"), 1 ->
      let t = eval1 () in
      Table.map_items
        (fun item ->
          match Atomic.to_number (Atomic.atomize env.coll item) with
          | Atomic.A_int i ->
              Item.Int (if name = "abs" then Int64.abs i else i)
          | Atomic.A_float f ->
              let g =
                match name with
                | "abs" -> Float.abs f
                | "floor" -> Float.floor f
                | "ceiling" -> Float.ceil f
                | _ -> Float.round f
              in
              Item.Float g
          | _ -> assert false)
        t
  | "normalize-space", 1 ->
      let t = eval1 () in
      let g = per_iter_strings t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          let words =
            String.split_on_char ' '
              (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
            |> List.filter (fun w -> String.length w > 0)
          in
          Table.push rows iter (Item.Str (String.concat " " words)))
        env.loop;
      Table.build rows
  | "translate", 3 ->
      let t = eval1 () and from_t = eval env (arg 1) and to_t = eval env (arg 2) in
      let g = per_iter_strings t
      and gf = per_iter_strings from_t
      and gt = per_iter_strings to_t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          let from_s = Option.value ~default:"" (gf iter) in
          let to_s = Option.value ~default:"" (gt iter) in
          let buf = Buffer.create (String.length s) in
          String.iter
            (fun c ->
              match String.index_opt from_s c with
              | None -> Buffer.add_char buf c
              | Some i ->
                  if i < String.length to_s then Buffer.add_char buf to_s.[i])
            s;
          Table.push rows iter (Item.Str (Buffer.contents buf)))
        env.loop;
      Table.build rows
  | "reverse", 1 ->
      let t = eval1 () in
      let c = Table.cursor t and rows = Table.builder () in
      Array.iter
        (fun iter ->
          Table.seek c iter;
          for r = c.Table.hi - 1 downto c.Table.lo do
            Table.push_row rows iter t r
          done)
        env.loop;
      Table.build rows
  | "subsequence", (2 | 3) ->
      let t = eval1 () and start_t = eval env (arg 1) in
      let len_t = if argc = 3 then Some (eval env (arg 2)) else None in
      let c = Table.cursor t and start_of = single "subsequence" start_t in
      let len_of = Option.map (single "subsequence") len_t in
      let num get iter =
        match get iter with
        | None -> Err.raisef "subsequence: missing argument"
        | Some item -> (
            match Atomic.to_number (Atomic.atomize env.coll item) with
            | Atomic.A_int i -> Int64.to_int i
            | Atomic.A_float f -> int_of_float (Float.round f)
            | _ -> assert false)
      in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          Table.seek c iter;
          let start = num start_of iter in
          let len =
            match len_of with
            | None -> c.Table.hi - c.Table.lo
            | Some get -> num get iter
          in
          for r = c.Table.lo to c.Table.hi - 1 do
            let pos = r - c.Table.lo + 1 in
            if pos >= start && pos < start + len then Table.push_row rows iter t r
          done)
        env.loop;
      Table.build rows
  | "index-of", 2 ->
      let t = eval1 () and needle_t = eval env (arg 1) in
      let items = group t and needle_of = single "index-of" needle_t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          match needle_of iter with
          | None -> ()
          | Some needle ->
              let nv = Atomic.atomize env.coll needle in
              List.iteri
                (fun i item ->
                  let ok =
                    try
                      Atomic.compare_atomics Atomic.Ceq
                        (Atomic.atomize env.coll item) nv
                    with Err.Error _ -> false
                  in
                  if ok then
                    Table.push rows iter (Item.Int (Int64.of_int (i + 1))))
                (items iter))
        env.loop;
      Table.build rows
  | "distinct-values", 1 ->
      let items = group (eval1 ()) in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          let seen = Hashtbl.create 8 in
          List.iter
            (fun item ->
              let a = Atomic.atomize env.coll item in
              let key = Atomic.atomic_to_string a in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                Table.push rows iter (Atomic.to_item a)
              end)
            (items iter))
        env.loop;
      Table.build rows
  | ("standoff-start" | "standoff-end"), 1 ->
      (* Region accessors: the extent bounds of a node's area under the
         current standoff configuration. *)
      let get = single name (eval1 ()) in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          match get iter with
          | None -> ()
          | Some item -> (
              match area_of_item env item with
              | None -> ()
              | Some (_, area) ->
                  let extent = Standoff_interval.Area.extent area in
                  let v =
                    if name = "standoff-start" then
                      Standoff_interval.Region.start_pos extent
                    else Standoff_interval.Region.end_pos extent
                  in
                  Table.push rows iter (Item.Int v)))
        env.loop;
      Table.build rows
  | ("standoff-contains" | "standoff-overlaps"), 2 ->
      (* The paper's §3.1 predicates between two area-annotations,
         honouring non-contiguous areas. *)
      let t1 = eval1 () and t2 = eval env (arg 1) in
      let get1 = single name t1 and get2 = single name t2 in
      let mask =
        Array.map
          (fun iter ->
            match (get1 iter, get2 iter) with
            | Some a, Some b -> (
                match (area_of_item env a, area_of_item env b) with
                | Some (_, area_a), Some (_, area_b) ->
                    if name = "standoff-contains" then
                      Standoff_interval.Area.contains area_a area_b
                    else Standoff_interval.Area.overlaps area_a area_b
                | _ -> false)
            | _ -> false)
          env.loop
      in
      bool_table env mask
  | "standoff-relation", 2 ->
      (* The exact Allen relation between the two annotations' extents
         (per Allen 1983; the 13 relations of §3). *)
      let t1 = eval1 () and t2 = eval env (arg 1) in
      let get1 = single name t1 and get2 = single name t2 in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          match (get1 iter, get2 iter) with
          | Some a, Some b -> (
              match (area_of_item env a, area_of_item env b) with
              | Some (_, area_a), Some (_, area_b) ->
                  let rel =
                    Standoff_interval.Allen.classify
                      (Standoff_interval.Area.extent area_a)
                      (Standoff_interval.Area.extent area_b)
                  in
                  Table.push rows iter (Item.Str (Standoff_interval.Allen.to_string rel))
              | _ -> ())
          | _ -> ())
        env.loop;
      Table.build rows
  | "standoff-snippet", 2 ->
      (* The BLOB content under a node's area: the regions are read in
         order and concatenated (re-assembling non-contiguous areas). *)
      let t = eval1 () and blob_t = eval env (arg 1) in
      let get = single name t and blob_of = single name blob_t in
      let rows = Table.builder () in
      Array.iter
        (fun iter ->
          match (get iter, blob_of iter) with
          | Some item, Some blob_name -> (
              match area_of_item env item with
              | None -> ()
              | Some (_, area) -> (
                  let blob_name = Atomic.string_value env.coll blob_name in
                  match Collection.blob env.coll blob_name with
                  | None -> Err.raisef "standoff-snippet: no blob %S" blob_name
                  | Some blob ->
                      Table.push rows iter (Item.Str (Standoff_store.Blob.read_area blob area))))
          | _ -> ())
        env.loop;
      Table.build rows
  | _ -> Err.raisef "unknown function %s/%d" name argc

(* Function form of the StandOff joins with an explicit candidate
   sequence (Figure 3).  [Plan.lower] already unified the
   no-candidates form with the axis form, so only the explicit case
   lands here. *)
and standoff_function env ?span ~strategy_choice op test ctx cand_table =
  let not_a_node item =
    Err.raisef "%s: candidate is not a node" (Item.to_string item)
  in
  ignore (node_keys_or cand_table not_a_node);
  (* Each iteration's own candidates, in document order; the select
     join runs against every annotation and is in document order per
     iteration like any step. *)
  let cands = Table.distinct_doc_order cand_table in
  let cand_keys = node_keys_or cands not_a_node in
  let selected =
    standoff_step env ?span ~strategy_choice ~pushdown:false (Op.select_of op)
      test ctx
  in
  let selected_keys = node_keys_or selected not_a_node in
  (* One merge per iteration: select ops keep the joined nodes that
     are candidates of that iteration; reject ops keep the candidates
     that are area-annotations and did not join, since
     reject(S1, S2) = S2 minus select(S1, S2). *)
  let keep_joined = Op.is_select op in
  let b = Table.builder () in
  let is_annotation k =
    let doc_id = Table.key_doc k in
    Standoff.Annots.is_annotation
      (annots_of env doc_id (Collection.doc env.coll doc_id))
      (Table.key_pre k)
  in
  let cc = Table.cursor cands and sc = Table.cursor selected in
  Array.iter
    (fun iter ->
      Table.seek cc iter;
      Table.seek sc iter;
      let c_hi = cc.Table.hi and s_hi = sc.Table.hi in
      let rec merge c s =
        if c < c_hi then begin
          let cand = cand_keys.(c) in
          let order = if s < s_hi then Int.compare cand selected_keys.(s) else -1 in
          if order > 0 then merge c (s + 1)
          else begin
            let joined = order = 0 in
            if
              if keep_joined then joined
              else (not joined) && is_annotation cand
            then Table.push_node b iter cand;
            merge (c + 1) (if joined then s + 1 else s)
          end
        end
      in
      merge cc.Table.lo sc.Table.lo)
    (Table.iters_present cands);
  Table.build b
