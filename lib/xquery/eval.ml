module Vec = Standoff_util.Vec
module Search = Standoff_util.Search
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

let restrict_table t ~keep =
  let iters = Vec.create () and items = Vec.create () in
  for r = 0 to Table.row_count t - 1 do
    let it = Table.iter_at t r in
    if Search.mem_sorted_int keep it then begin
      Vec.push iters it;
      Vec.push items (Table.item_at t r)
    end
  done;
  Table.make (Vec.to_array iters) (Vec.to_array items)

let restrict_env env ~keep =
  {
    env with
    loop = keep;
    vars = List.map (fun (n, t) -> (n, restrict_table t ~keep)) env.vars;
    focus =
      Option.map
        (fun f ->
          {
            f_item = restrict_table f.f_item ~keep;
            f_pos = restrict_table f.f_pos ~keep;
            f_last = restrict_table f.f_last ~keep;
          })
        env.focus;
  }

(* ------------------------------------------------------------------ *)
(* Per-iteration helpers                                              *)

(* Apply [f iter items] for each iteration of the loop, where [items]
   is that iteration's sequence in [t]. *)
let per_iter env t ~f =
  Array.iter (fun iter -> f iter (Table.sequence_of_iter t iter)) env.loop

let ebv_mask env t =
  let mask = Array.make (Array.length env.loop) false in
  Array.iteri
    (fun i iter ->
      mask.(i) <-
        Atomic.effective_boolean_value env.coll (Table.sequence_of_iter t iter))
    env.loop;
  mask

let loop_where env mask value =
  let keep = Vec.create () in
  Array.iteri (fun i iter -> if mask.(i) = value then Vec.push keep iter) env.loop;
  Vec.to_array keep

let bool_table env mask =
  Table.make (Array.copy env.loop)
    (Array.map (fun b -> Item.Bool b) mask)

let singleton_of what items =
  match items with
  | [] -> None
  | [ x ] -> Some x
  | _ -> Err.raisef "%s expects at most one item per iteration" what

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
  let by_doc : (int, int Vec.t * int Vec.t) Hashtbl.t = Hashtbl.create 4 in
  let doc_ids = Vec.create () in
  for r = 0 to Table.row_count context - 1 do
    let iter = Table.iter_at context r in
    match Table.item_at context r with
    | Item.Node n ->
        let iters, pres =
          match Hashtbl.find_opt by_doc n.Collection.doc_id with
          | Some cols -> cols
          | None ->
              let cols = (Vec.create (), Vec.create ()) in
              Hashtbl.add by_doc n.Collection.doc_id cols;
              Vec.push doc_ids n.Collection.doc_id;
              cols
        in
        Vec.push iters iter;
        Vec.push pres n.Collection.pre
    | Item.Attribute _ -> ()
    | (Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _) as item ->
        Err.raisef "%s:: applied to a non-node item %s" (Op.to_string op)
          (Item.to_string item)
  done;
  let ids = Vec.to_array doc_ids in
  Array.sort compare ids;
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
      (fun doc_id ->
        let iters_v, pres_v = Hashtbl.find by_doc doc_id in
        let context_iters = Vec.to_array iters_v in
        let context_pres = Vec.to_array pres_v in
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
      ids
  in
  let run_shard
      (doc_id, doc, annots, context_iters, context_pres, candidates, strategy,
       stats) =
    let loop =
      (* Distinct iters present in this document's context. *)
      let v = Vec.create () in
      Array.iteri
        (fun i it ->
          if i = 0 || context_iters.(i - 1) <> it then Vec.push v it)
        context_iters;
      Vec.to_array v
    in
    let iters, pres =
      Join.run_lifted op strategy annots ?pool:env.pool ~deadline:env.deadline
        ?stats ~loop ~context_iters ~context_pres ~candidates ()
    in
    let node pre = Item.Node { Collection.doc_id; pre } in
    match candidates with
    | Join.Named _ ->
        (* The name test was pushed into the candidates: every row
           already passes it. *)
        Table.make iters (Array.map node pres)
    | Join.All | Join.Pres _ ->
        (* Otherwise the node test filters here (kind tests cannot be
           pushed at all), compacting in place. *)
        let n = Array.length pres in
        let out_iters = Array.make n 0 and items = Array.make n (Item.Bool false) in
        let k = ref 0 in
        Array.iteri
          (fun r pre ->
            if Node_test.matches doc test pre then begin
              out_iters.(!k) <- iters.(r);
              items.(!k) <- node pre;
              incr k
            end)
          pres;
        if !k = n then Table.make out_iters items
        else Table.make (Array.sub out_iters 0 !k) (Array.sub items 0 !k)
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

let rec dom_of_items env items =
  (* Adjacent atomic values merge into one text node separated by
     spaces; nodes are deep-copied. *)
  let out = ref [] in
  let pending = Buffer.create 16 in
  let pending_nonempty = ref false in
  let flush () =
    if !pending_nonempty then begin
      out := Dom.Text (Buffer.contents pending) :: !out;
      Buffer.clear pending;
      pending_nonempty := false
    end
  in
  let attrs = ref [] in
  List.iter
    (fun item ->
      match item with
      | Item.Node n ->
          flush ();
          let doc = Collection.doc env.coll n.Collection.doc_id in
          out := Doc.to_dom doc n.Collection.pre :: !out
      | Item.Attribute (_, name, value) -> attrs := (name, value) :: !attrs
      | Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _ ->
          if !pending_nonempty then Buffer.add_char pending ' ';
          Buffer.add_string pending
            (Atomic.atomic_to_string (Atomic.atomize env.coll item));
          pending_nonempty := true)
    items;
  flush ();
  (List.rev !attrs, List.rev !out)

and construct_element env ~tag ~attr_tables ~content_tables iter =
  let attr_value parts =
    String.concat ""
      (List.map
         (function
           | `Fixed s -> s
           | `Table t ->
               Table.sequence_of_iter t iter
               |> List.map (fun item ->
                      Atomic.atomic_to_string (Atomic.atomize env.coll item))
               |> String.concat " ")
         parts)
  in
  let attrs = List.map (fun (name, parts) -> (name, attr_value parts)) attr_tables in
  let content_attrs = ref [] in
  let children =
    List.concat_map
      (function
        | `Fixed s -> if Dom.is_ws_only s then [] else [ Dom.Text s ]
        | `Table t ->
            let extra, nodes = dom_of_items env (Table.sequence_of_iter t iter) in
            content_attrs := !content_attrs @ extra;
            nodes)
      content_tables
  in
  let el = Dom.element ~attrs:(attrs @ !content_attrs) tag children in
  (* The new document goes to the run's arena, never to the shared
     collection; it has no name anyone can look up. *)
  let doc = Doc.of_dom ~name:"#constructed" (Dom.document el) in
  let doc_id = Collection.add_constructed env.coll doc in
  Item.Node { Collection.doc_id; pre = 1 }

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
      Array.iteri
        (fun inner outer ->
          let i = Search.lower_bound_int env.loop outer in
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
      let rows = ref [] in
      per_iter env t ~f:(fun iter items ->
          match singleton_of "unary minus" items with
          | None -> ()
          | Some item ->
              rows :=
                (iter, Atomic.to_item (Atomic.negate (Atomic.atomize env.coll item)))
                :: !rows);
      Table.of_rows (List.rev !rows)
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
            let guide = Dataguide.get ?pool:env.pool ~generation doc in
            let pres = Dataguide.lookup doc guide steps in
            Hashtbl.add per_doc doc_id pres;
            pres
      in
      let iters = Vec.create () in
      let items = Vec.create () in
      let total = ref 0 in
      for r = 0 to Table.row_count ctx - 1 do
        let iter = Table.iter_at ctx r in
        match Table.item_at ctx r with
        | Item.Node { Collection.doc_id; pre = 0 } ->
            let pres = lookup doc_id in
            total := !total + Array.length pres;
            Array.iter
              (fun pre ->
                Vec.push iters iter;
                Vec.push items (Item.Node { Collection.doc_id; pre }))
              pres
        | item ->
            Err.raisef "path lookup applied to non-document item %s"
              (Item.to_string item)
      done;
      (match env.span with
      | Some sp ->
          Trace.set_str sp "path" (Plan.path_to_string steps);
          Trace.add_int sp "guide_rows" !total
      | None -> ());
      Table.make (Vec.to_array iters) (Vec.to_array items)
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
  | Plan.Path_map { input; body } ->
      let t = eval env input in
      let exp = Table.expand t in
      let free = Plan.free_vars body in
      let env' = enter_loop env exp ~free in
      let last_items =
        Array.map
          (fun outer ->
            let lo, hi = Table.group_bounds t outer in
            Item.Int (Int64.of_int (hi - lo)))
          exp.Table.outer_of_inner
      in
      let env' =
        {
          env' with
          focus =
            Some
              {
                f_item = exp.Table.var_table;
                f_pos = exp.Table.pos_table;
                f_last =
                  Table.make (Array.copy exp.Table.inner_loop) last_items;
              };
        }
      in
      let out = eval env' body in
      let back = Table.backmap out ~outer_of_inner:exp.Table.outer_of_inner in
      (* A path result that is all nodes is deduplicated in document
         order; sequences of atomic values keep their order. *)
      let all_nodes = ref true in
      for r = 0 to Table.row_count back - 1 do
        if not (Item.is_node (Table.item_at back r)) then all_nodes := false
      done;
      if !all_nodes then Table.distinct_doc_order back else back
  | Plan.Call { name; args } -> eval_call env name args
  | Plan.Elem_ctor { tag; attrs; content } ->
      let eval_part = function
        | Plan.Fixed s -> `Fixed s
        | Plan.Enclosed e -> `Table (eval env e)
      in
      let attr_tables =
        List.map (fun (n, parts) -> (n, List.map eval_part parts)) attrs
      in
      let content_tables = List.map eval_part content in
      let items =
        Array.map
          (fun iter ->
            construct_element env ~tag ~attr_tables ~content_tables iter)
          env.loop
      in
      Table.make (Array.copy env.loop) items

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
        Array.iter
          (fun inner ->
            match
              singleton_of "order by key" (Table.sequence_of_iter t inner)
            with
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
  let iters = Vec.create () and items = Vec.create () in
  Array.iter
    (fun inner ->
      let lo, hi = Table.group_bounds out inner in
      for r = lo to hi - 1 do
        Vec.push iters exp.Table.outer_of_inner.(inner);
        Vec.push items (Table.item_at out r)
      done)
    perm;
  Table.make (Vec.to_array iters) (Vec.to_array items)

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
      let t1 = eval env a and t2 = eval env b in
      let mask = Array.make (Array.length env.loop) false in
      Array.iteri
        (fun i iter ->
          let s1 =
            List.map (Atomic.atomize env.coll) (Table.sequence_of_iter t1 iter)
          in
          let s2 =
            List.map (Atomic.atomize env.coll) (Table.sequence_of_iter t2 iter)
          in
          (* General comparison: existential over both sequences. *)
          mask.(i) <-
            List.exists
              (fun x -> List.exists (fun y -> Atomic.compare_atomics cmp x y) s2)
              s1)
        env.loop;
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
      let t1 = eval env a and t2 = eval env b in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let s1 = Table.sequence_of_iter t1 iter in
          let s2 = Table.sequence_of_iter t2 iter in
          match
            (singleton_of "arithmetic" s1, singleton_of "arithmetic" s2)
          with
          | Some x, Some y ->
              let v =
                Atomic.arithmetic arith (Atomic.atomize env.coll x)
                  (Atomic.atomize env.coll y)
              in
              rows := (iter, Atomic.to_item v) :: !rows
          | _ -> () (* empty operand -> empty result *))
        env.loop;
      Table.of_rows (List.rev !rows)
  | Ast.Op_to ->
      let t1 = eval env a and t2 = eval env b in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let bound what t =
            match singleton_of "range" (Table.sequence_of_iter t iter) with
            | None -> None
            | Some item -> (
                match Atomic.to_number (Atomic.atomize env.coll item) with
                | Atomic.A_int i -> Some i
                | _ -> Err.raisef "range %s must be an integer" what)
          in
          match (bound "start" t1, bound "end" t2) with
          | Some lo, Some hi ->
              if Int64.sub hi lo > 10_000_000L then
                Err.raisef "range %Ld to %Ld is too large" lo hi;
              let i = ref lo in
              while Int64.compare !i hi <= 0 do
                rows := (iter, Item.Int !i) :: !rows;
                i := Int64.add !i 1L
              done
          | _ -> ())
        env.loop;
      Table.of_rows (List.rev !rows)
  | Ast.Op_union ->
      let t = Table.append2 (eval env a) (eval env b) in
      (try Table.distinct_doc_order t
       with Invalid_argument _ ->
         Err.raisef "union operands must be node sequences")
  | Ast.Op_intersect | Ast.Op_except ->
      let t1 = eval env a and t2 = eval env b in
      let keep_if_in_t2 = op = Ast.Op_intersect in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let rhs = Table.sequence_of_iter t2 iter in
          List.iter
            (fun item ->
              if not (Item.is_node item) then
                Err.raisef "set operation operands must be node sequences";
              let present = List.exists (Item.equal item) rhs in
              if present = keep_if_in_t2 then rows := (iter, item) :: !rows)
            (Table.sequence_of_iter t1 iter))
        env.loop;
      Table.distinct_doc_order (Table.of_rows (List.rev !rows))

(* ---------------- predicates ---------------- *)

and eval_filter env input predicate =
  let t = eval env input in
  record_rows_in env t;
  let exp = Table.expand t in
  let free = Plan.free_vars predicate in
  let env' = enter_loop env exp ~free in
  (* Focus: the filtered item, its position, and the size of its
     iteration's sequence. *)
  let last_items =
    Array.map
      (fun outer ->
        let lo, hi = Table.group_bounds t outer in
        Item.Int (Int64.of_int (hi - lo)))
      exp.Table.outer_of_inner
  in
  let focus =
    Some
      {
        f_item = exp.Table.var_table;
        f_pos = exp.Table.pos_table;
        f_last = Table.make (Array.copy exp.Table.inner_loop) last_items;
      }
  in
  let env' = { env' with focus } in
  let p = eval env' predicate in
  let keep = Vec.create () in
  Array.iteri
    (fun inner outer ->
      let verdict =
        match Table.sequence_of_iter p inner with
        | [ Item.Int n ] ->
            (* Positional predicate. *)
            (match Table.item_at exp.Table.pos_table inner with
            | Item.Int pos -> Int64.equal pos n
            | _ -> assert false)
        | [ Item.Float f ] ->
            (match Table.item_at exp.Table.pos_table inner with
            | Item.Int pos -> Float.equal (Int64.to_float pos) f
            | _ -> assert false)
        | items -> Atomic.effective_boolean_value env.coll items
      in
      if verdict then
        Vec.push keep (outer, Table.item_at exp.Table.var_table inner))
    exp.Table.outer_of_inner;
  let rows = Vec.to_array keep in
  Table.make (Array.map fst rows) (Array.map snd rows)

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
  let per_iter_strings t =
    (* Each iteration's sequence as an optional string (singleton). *)
    fun iter ->
      match singleton_of name (Table.sequence_of_iter t iter) with
      | None -> None
      | Some item -> Some (Atomic.string_value env.coll item)
  in
  match (name, argc) with
  | "#ddo", 1 -> (
      try Table.distinct_doc_order (eval1 ())
      with Invalid_argument _ ->
        Err.raisef "path steps must produce node sequences")
  | "doc", 1 ->
      let t = eval1 () in
      let get = per_iter_strings t in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          match get iter with
          | None -> ()
          | Some uri -> (
              match Collection.doc_id_of_name env.coll uri with
              | Some doc_id ->
                  rows := (iter, Item.Node { Collection.doc_id; pre = 0 }) :: !rows
              | None -> Err.raisef "doc(%S): no such document" uri))
        env.loop;
      Table.of_rows (List.rev !rows)
  | "root", 1 ->
      let t = eval1 () in
      Table.distinct_doc_order
        (Table.map_items
           (fun item ->
             match item with
             | Item.Node n | Item.Attribute (n, _, _) ->
                 Item.Node { n with Collection.pre = 0 }
             | _ -> Err.raisef "root(): not a node")
           t)
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
      let t = eval1 () in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let s =
            match singleton_of "string" (Table.sequence_of_iter t iter) with
            | None -> ""
            | Some item -> Atomic.string_value env.coll item
          in
          rows := (iter, Item.Str s) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
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
      let t = eval1 () in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let s =
            match singleton_of name (Table.sequence_of_iter t iter) with
            | None -> ""
            | Some (Item.Node n) ->
                let doc = Collection.doc env.coll n.Collection.doc_id in
                Option.value ~default:"" (Doc.name_of doc n.Collection.pre)
            | Some (Item.Attribute (_, a, _)) -> a
            | Some _ -> Err.raisef "%s(): not a node" name
          in
          rows := (iter, Item.Str s) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
  | "concat", _ when argc >= 2 ->
      let tables = List.map (eval env) args in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let parts =
            List.map
              (fun t ->
                match singleton_of "concat" (Table.sequence_of_iter t iter) with
                | None -> ""
                | Some item -> Atomic.string_value env.coll item)
              tables
          in
          rows := (iter, Item.Str (String.concat "" parts)) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
  | "string-join", 2 ->
      let t = eval1 () and sep_t = eval env (arg 1) in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let sep =
            match
              singleton_of "string-join" (Table.sequence_of_iter sep_t iter)
            with
            | None -> ""
            | Some item -> Atomic.string_value env.coll item
          in
          let parts =
            List.map (Atomic.string_value env.coll)
              (Table.sequence_of_iter t iter)
          in
          rows := (iter, Item.Str (String.concat sep parts)) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
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
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          rows := (iter, Item.Int (Int64.of_int (String.length s))) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
  | "substring", (2 | 3) ->
      let t = eval1 () and start_t = eval env (arg 1) in
      let len_t = if argc = 3 then Some (eval env (arg 2)) else None in
      let g = per_iter_strings t in
      let num t iter =
        match singleton_of "substring" (Table.sequence_of_iter t iter) with
        | None -> Err.raisef "substring: missing argument"
        | Some item -> (
            match Atomic.to_number (Atomic.atomize env.coll item) with
            | Atomic.A_int i -> Int64.to_int i
            | Atomic.A_float f -> int_of_float (Float.round f)
            | _ -> assert false)
      in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          let start = max 1 (num start_t iter) in
          let len =
            match len_t with
            | None -> String.length s - start + 1
            | Some t -> num t iter
          in
          let lo = start - 1 in
          let len = max 0 (min len (String.length s - lo)) in
          let sub = if lo >= String.length s then "" else String.sub s lo len in
          rows := (iter, Item.Str sub) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
  | ("sum" | "min" | "max" | "avg"), 1 ->
      let t = eval1 () in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let nums =
            List.map
              (fun item -> Atomic.to_number (Atomic.atomize env.coll item))
              (Table.sequence_of_iter t iter)
          in
          let float_of = function
            | Atomic.A_int i -> Int64.to_float i
            | Atomic.A_float f -> f
            | _ -> assert false
          in
          match (name, nums) with
          | "sum", [] -> rows := (iter, Item.Int 0L) :: !rows
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
                rows := (iter, Item.Int s) :: !rows
              else
                let s = List.fold_left (fun acc n -> acc +. float_of n) 0.0 nums in
                rows := (iter, Item.Float s) :: !rows
          | "avg", nums ->
              let s = List.fold_left (fun acc n -> acc +. float_of n) 0.0 nums in
              rows := (iter, Item.Float (s /. float_of_int (List.length nums))) :: !rows
          | op, first :: rest ->
              let better a b =
                let c = Float.compare (float_of a) (float_of b) in
                if op = "min" then c <= 0 else c >= 0
              in
              let best =
                List.fold_left (fun acc n -> if better acc n then acc else n) first rest
              in
              rows := (iter, Atomic.to_item best) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
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
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let s = Option.value ~default:"" (g iter) in
          let words =
            String.split_on_char ' '
              (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
            |> List.filter (fun w -> String.length w > 0)
          in
          rows := (iter, Item.Str (String.concat " " words)) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
  | "translate", 3 ->
      let t = eval1 () and from_t = eval env (arg 1) and to_t = eval env (arg 2) in
      let g = per_iter_strings t
      and gf = per_iter_strings from_t
      and gt = per_iter_strings to_t in
      let rows = ref [] in
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
          rows := (iter, Item.Str (Buffer.contents buf)) :: !rows)
        env.loop;
      Table.of_rows (List.rev !rows)
  | "reverse", 1 ->
      let t = eval1 () in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          List.iter
            (fun item -> rows := (iter, item) :: !rows)
            (List.rev (Table.sequence_of_iter t iter)))
        env.loop;
      Table.of_rows (List.rev !rows)
  | "subsequence", (2 | 3) ->
      let t = eval1 () and start_t = eval env (arg 1) in
      let len_t = if argc = 3 then Some (eval env (arg 2)) else None in
      let num t iter =
        match singleton_of "subsequence" (Table.sequence_of_iter t iter) with
        | None -> Err.raisef "subsequence: missing argument"
        | Some item -> (
            match Atomic.to_number (Atomic.atomize env.coll item) with
            | Atomic.A_int i -> Int64.to_int i
            | Atomic.A_float f -> int_of_float (Float.round f)
            | _ -> assert false)
      in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let items = Table.sequence_of_iter t iter in
          let start = num start_t iter in
          let len =
            match len_t with None -> List.length items | Some t -> num t iter
          in
          List.iteri
            (fun i item ->
              let pos = i + 1 in
              if pos >= start && pos < start + len then
                rows := (iter, item) :: !rows)
            items)
        env.loop;
      Table.of_rows (List.rev !rows)
  | "index-of", 2 ->
      let t = eval1 () and needle_t = eval env (arg 1) in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          match
            singleton_of "index-of" (Table.sequence_of_iter needle_t iter)
          with
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
                    rows := (iter, Item.Int (Int64.of_int (i + 1))) :: !rows)
                (Table.sequence_of_iter t iter))
        env.loop;
      Table.of_rows (List.rev !rows)
  | "distinct-values", 1 ->
      let t = eval1 () in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let seen = Hashtbl.create 8 in
          List.iter
            (fun item ->
              let a = Atomic.atomize env.coll item in
              let key = Atomic.atomic_to_string a in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                rows := (iter, Atomic.to_item a) :: !rows
              end)
            (Table.sequence_of_iter t iter))
        env.loop;
      Table.of_rows (List.rev !rows)
  | ("standoff-start" | "standoff-end"), 1 ->
      (* Region accessors: the extent bounds of a node's area under the
         current standoff configuration. *)
      let t = eval1 () in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          match singleton_of name (Table.sequence_of_iter t iter) with
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
                  rows := (iter, Item.Int v) :: !rows))
        env.loop;
      Table.of_rows (List.rev !rows)
  | ("standoff-contains" | "standoff-overlaps"), 2 ->
      (* The paper's §3.1 predicates between two area-annotations,
         honouring non-contiguous areas. *)
      let t1 = eval1 () and t2 = eval env (arg 1) in
      let mask =
        Array.map
          (fun iter ->
            match
              ( singleton_of name (Table.sequence_of_iter t1 iter),
                singleton_of name (Table.sequence_of_iter t2 iter) )
            with
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
      let rows = ref [] in
      Array.iter
        (fun iter ->
          match
            ( singleton_of name (Table.sequence_of_iter t1 iter),
              singleton_of name (Table.sequence_of_iter t2 iter) )
          with
          | Some a, Some b -> (
              match (area_of_item env a, area_of_item env b) with
              | Some (_, area_a), Some (_, area_b) ->
                  let rel =
                    Standoff_interval.Allen.classify
                      (Standoff_interval.Area.extent area_a)
                      (Standoff_interval.Area.extent area_b)
                  in
                  rows :=
                    (iter, Item.Str (Standoff_interval.Allen.to_string rel))
                    :: !rows
              | _ -> ())
          | _ -> ())
        env.loop;
      Table.of_rows (List.rev !rows)
  | "standoff-snippet", 2 ->
      (* The BLOB content under a node's area: the regions are read in
         order and concatenated (re-assembling non-contiguous areas). *)
      let t = eval1 () and blob_t = eval env (arg 1) in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          match
            ( singleton_of name (Table.sequence_of_iter t iter),
              singleton_of name (Table.sequence_of_iter blob_t iter) )
          with
          | Some item, Some blob_name -> (
              match area_of_item env item with
              | None -> ()
              | Some (_, area) -> (
                  let blob_name = Atomic.string_value env.coll blob_name in
                  match Collection.blob env.coll blob_name with
                  | None -> Err.raisef "standoff-snippet: no blob %S" blob_name
                  | Some blob ->
                      rows :=
                        (iter,
                         Item.Str (Standoff_store.Blob.read_area blob area))
                        :: !rows))
          | _ -> ())
        env.loop;
      Table.of_rows (List.rev !rows)
  | _ -> Err.raisef "unknown function %s/%d" name argc

(* Function form of the StandOff joins with an explicit candidate
   sequence (Figure 3).  [Plan.lower] already unified the
   no-candidates form with the axis form, so only the explicit case
   lands here. *)
and standoff_function env ?span ~strategy_choice op test ctx cand_table =
  (* Restrict per document to the explicit candidate nodes. *)
  let by_doc : (int, int Vec.t) Hashtbl.t = Hashtbl.create 4 in
  for r = 0 to Table.row_count cand_table - 1 do
    match Table.item_at cand_table r with
    | Item.Node n ->
        let v =
          match Hashtbl.find_opt by_doc n.Collection.doc_id with
          | Some v -> v
          | None ->
              let v = Vec.create () in
              Hashtbl.add by_doc n.Collection.doc_id v;
              v
        in
        Vec.push v n.Collection.pre
    | item -> Err.raisef "%s: candidate is not a node" (Item.to_string item)
  done;
  let sorted_by_doc = Hashtbl.create 4 in
  Hashtbl.iter
    (fun doc_id v ->
      let ids = Vec.to_array v in
      Array.sort compare ids;
      Hashtbl.add sorted_by_doc doc_id ids)
    by_doc;
  (* Select ops: intersect with the candidate set.  Reject ops need
     the join re-run against the candidate set, since rejecting is
     relative to S2. *)
  match op with
  | Op.Select_narrow | Op.Select_wide ->
      let unrestricted =
        standoff_step env ?span ~strategy_choice ~pushdown:false op test ctx
      in
      Table.filter
        (fun item ->
          match item with
          | Item.Node n -> (
              match Hashtbl.find_opt sorted_by_doc n.Collection.doc_id with
              | Some ids -> Search.mem_sorted_int ids n.Collection.pre
              | None -> false)
          | _ -> false)
        unrestricted
  | Op.Reject_narrow | Op.Reject_wide ->
      (* reject(S1, S2) = S2 minus select(S1, S2): compute the
         matching semi-join and complement within S2, per
         iteration. *)
      let selected =
        standoff_function env ?span ~strategy_choice (Op.select_of op) test ctx
          cand_table
      in
      let rows = ref [] in
      Array.iter
        (fun iter ->
          let matched = Table.sequence_of_iter selected iter in
          List.iter
            (fun item ->
              (* Keep candidates that are area-annotations and did
                 not match. *)
              match item with
              | Item.Node n ->
                  let doc = Collection.doc env.coll n.Collection.doc_id in
                  let annots = annots_of env n.Collection.doc_id doc in
                  if
                    Standoff.Annots.is_annotation annots n.Collection.pre
                    && not (List.exists (Item.equal item) matched)
                  then rows := (iter, item) :: !rows
              | _ -> ())
            (Table.sequence_of_iter cand_table iter))
        env.loop;
      Table.distinct_doc_order (Table.of_rows (List.rev !rows))
