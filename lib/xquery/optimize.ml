(* The rule-based plan optimizer.  One bottom-up pass applies:

   - constant folding (arithmetic, comparisons, unary minus, constant
     conditionals, singleton-sequence flattening), using the same
     {!Atomic} semantics the evaluator applies at run time — rules
     whose runtime behaviour is an error (division by zero,
     incomparable types) are left in place so the error still occurs;

   - step/filter fusion: a literal positional predicate on an axis
     step or StandOff join becomes the operator's fused [position]
     ([$b/select-narrow::bidder[1]] executes as one step), a
     [self::name] predicate on an unnamed step becomes its name test,
     and an [[@a = "lit"]] predicate becomes one [Attr_filter] pass
     over the rows' attribute slices;

   - node-test pushdown (paper §4.3): a name test on a StandOff join
     restricts the candidate region index before the merge sweep
     instead of post-filtering the join result — unless collection
     statistics say the name covers nearly all annotations, in which
     case restricting the index costs more than it saves;

   - strategy pinning: an engine-wide strategy override (prolog
     [declare option standoff-strategy], CLI [--strategy], benchmark
     sweeps) pins every StandOff operator; otherwise operators stay
     [S_auto] and resolve per call site from {!Standoff.Annots}
     statistics. *)

module Node_test = Standoff_xpath.Node_test
module Axes = Standoff_xpath.Axes
module Config = Standoff.Config
module Catalog = Standoff.Catalog
module Annots = Standoff.Annots
module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Dataguide = Standoff_store.Dataguide

type stats = {
  st_annotations : unit -> int;
      (** total area-annotations across the collection *)
  st_named : string -> int;  (** total elements with this name *)
  st_path : (bool * string) list -> int;
      (** elements a collapsed path reaches, from the DataGuide *)
}

let no_stats =
  {
    st_annotations = (fun () -> 0);
    st_named = (fun _ -> 0);
    st_path = (fun _ -> 0);
  }

let collection_stats ?(dataguide = false) coll catalog config =
  let annots =
    lazy
      (Collection.fold_docs
         (fun acc _ doc ->
           (* Documents whose region markup is invalid under this
              configuration simply contribute no statistics; touching
              them in a query still reports the error. *)
           match Catalog.annots catalog config doc with
           | a -> Annots.annotation_count a + acc
           | exception Annots.Invalid_region _ -> acc)
         0 coll)
  in
  {
    st_annotations = (fun () -> Lazy.force annots);
    st_named =
      (fun name ->
        Collection.fold_docs
          (fun acc _ doc -> acc + Array.length (Doc.elements_named doc name))
          0 coll);
    st_path =
      (fun steps ->
        if not dataguide then
          (* Guide off: fall back on the final step's name count, the
             same number the step-by-step plan would cost. *)
          match List.rev steps with
          | (_, name) :: _ ->
              Collection.fold_docs
                (fun acc _ doc ->
                  acc + Array.length (Doc.elements_named doc name))
                0 coll
          | [] -> 0
        else
          Collection.fold_docs
            (fun acc _ doc ->
              let generation = Catalog.generation catalog doc.Doc.doc_name in
              let guide = Dataguide.get ~generation doc in
              acc + Dataguide.count doc guide steps)
            0 coll);
  }

(* ------------------------------------------------------------------ *)
(* Constant folding helpers                                           *)

let atomic_of_literal = function
  | Ast.Lit_int i -> Atomic.A_int i
  | Ast.Lit_float f -> Atomic.A_float f
  | Ast.Lit_string s -> Atomic.A_str s

let literal_of_atomic = function
  | Atomic.A_int i -> Some (Ast.Lit_int i)
  | Atomic.A_float f -> Some (Ast.Lit_float f)
  | Atomic.A_str s -> Some (Ast.Lit_string s)
  | Atomic.A_bool _ | Atomic.A_untyped _ -> None

let bool_call b = Plan.make (Plan.Call { name = (if b then "true" else "false"); args = [] })

let arith_of_binop = function
  | Ast.Op_add -> Some Atomic.Add
  | Ast.Op_sub -> Some Atomic.Sub
  | Ast.Op_mul -> Some Atomic.Mul
  | Ast.Op_div -> Some Atomic.Div
  | Ast.Op_idiv -> Some Atomic.Idiv
  | Ast.Op_mod -> Some Atomic.Mod
  | _ -> None

let cmp_of_binop = function
  | Ast.Op_eq -> Some Atomic.Ceq
  | Ast.Op_ne -> Some Atomic.Cne
  | Ast.Op_lt -> Some Atomic.Clt
  | Ast.Op_le -> Some Atomic.Cle
  | Ast.Op_gt -> Some Atomic.Cgt
  | Ast.Op_ge -> Some Atomic.Cge
  | _ -> None

(* The effective boolean value of a plan whose verdict is static:
   literals, true()/false(), and the empty sequence. *)
let static_ebv (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Literal (Ast.Lit_int i) -> Some (not (Int64.equal i 0L))
  | Plan.Literal (Ast.Lit_float f) -> Some (not (f = 0.0 || Float.is_nan f))
  | Plan.Literal (Ast.Lit_string s) -> Some (String.length s > 0)
  | Plan.Call { name = "true"; args = [] } -> Some true
  | Plan.Call { name = "false"; args = [] } -> Some false
  | Plan.Sequence [] -> Some false
  | _ -> None

let fold_binop op (a : Plan.t) (b : Plan.t) =
  match (a.Plan.desc, b.Plan.desc) with
  | Plan.Literal la, Plan.Literal lb -> (
      let xa = atomic_of_literal la and xb = atomic_of_literal lb in
      match arith_of_binop op with
      | Some arith -> (
          match Atomic.arithmetic arith xa xb with
          | v -> Option.map (fun l -> Plan.make (Plan.Literal l)) (literal_of_atomic v)
          | exception Err.Error _ -> None)
      | None -> (
          match cmp_of_binop op with
          | Some cmp -> (
              match Atomic.compare_atomics cmp xa xb with
              | v -> Some (bool_call v)
              | exception Err.Error _ -> None)
          | None -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fusion helpers                                                     *)

let positional_literal (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Literal (Ast.Lit_int k)
    when Int64.compare k 1L >= 0 && Int64.compare k (Int64.of_int max_int) <= 0
    ->
      Some (Int64.to_int k)
  | _ -> None

(* [self::n] as a predicate: keeps exactly the context elements named
   [n]. *)
let self_name_test (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Axis_step
      {
        input = { Plan.desc = Plan.Context_item; _ };
        axis = Axes.Self;
        test = Node_test.Name n;
        position = None;
      } ->
      Some n
  | _ -> None

(* [@a = "lit"] (either way round) as a predicate: one attribute
   compared with a string, which is string equality on the untyped
   attribute value. *)
let attr_equality (p : Plan.t) =
  let attr (q : Plan.t) =
    match q.Plan.desc with
    | Plan.Attribute_step
        { input = { Plan.desc = Plan.Context_item; _ }; test = Node_test.Name a }
      ->
        Some a
    | _ -> None
  in
  match p.Plan.desc with
  | Plan.Binop (Ast.Op_eq, q, { Plan.desc = Plan.Literal (Ast.Lit_string v); _ })
  | Plan.Binop (Ast.Op_eq, { Plan.desc = Plan.Literal (Ast.Lit_string v); _ }, q)
    ->
      Option.map (fun a -> (a, v)) (attr q)
  | _ -> None

let unnamed_test = function
  | Node_test.Any | Node_test.Kind_node | Node_test.Kind_element None -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Path collapse (strong DataGuide)                                    *)

(* The base of a collapsible path chain: a source that evaluates to
   document nodes only — the builtin [doc(uri)], the builtin [root(x)]
   (the lowering of a leading [/]) — or an already-collapsed
   [Path_lookup], whose steps the next step extends.  The engine turns
   collapse off altogether when the prolog declares a user function
   named [doc] or [root] (user functions shadow builtins, so the
   document-node guarantee would be gone). *)
let path_base (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Call { name = "doc" | "root"; args = [ _ ] } -> Some (p, [])
  | Plan.Path_lookup { input; steps } -> Some (input, steps)
  | _ -> None

(* [a//b] lowers to [child::b] over [descendant-or-self::node()]; a
   descendant-or-self step directly over a path base contributes the
   pending [//] of the next child step. *)
let desc_or_self_over_base (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Axis_step
      {
        input;
        axis = Axes.Descendant_or_self;
        test = Node_test.Kind_node;
        position = None;
      } ->
      path_base input
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The rewriter                                                       *)

let optimize ?pin_strategy ?(stats = no_stats) ?(dataguide = false) plan =
  let pushdown_pays name =
    let total = stats.st_annotations () in
    (* With no statistics (empty collection) restricting is the safe
       default — it can only shrink the index.  Skip it only when the
       name demonstrably covers nearly all annotations (>80%), where
       building the restricted index costs about as much as the scan
       it saves. *)
    total = 0 || stats.st_named name * 5 < total * 4
  in
  let rec go (p : Plan.t) : Plan.t =
    let p = descend p in
    rewrite p
  and descend (p : Plan.t) =
    let mk desc = Plan.make desc in
    match p.Plan.desc with
    | Plan.Literal _ | Plan.Var _ | Plan.Context_item -> p
    | Plan.Sequence es -> mk (Plan.Sequence (List.map go es))
    | Plan.For { var; pos_var; source; order_by; body } ->
        mk
          (Plan.For
             {
               var;
               pos_var;
               source = go source;
               order_by =
                 List.map
                   (fun s -> { s with Plan.key = go s.Plan.key })
                   order_by;
               body = go body;
             })
    | Plan.Let { var; value; body } ->
        mk (Plan.Let { var; value = go value; body = go body })
    | Plan.Where { cond; body } ->
        mk (Plan.Where { cond = go cond; body = go body })
    | Plan.Quantified { universal; var; source; satisfies } ->
        mk
          (Plan.Quantified
             { universal; var; source = go source; satisfies = go satisfies })
    | Plan.If { cond; then_; else_ } ->
        mk (Plan.If { cond = go cond; then_ = go then_; else_ = go else_ })
    | Plan.Binop (op, a, b) -> mk (Plan.Binop (op, go a, go b))
    | Plan.Unary_minus e -> mk (Plan.Unary_minus (go e))
    | Plan.Axis_step s -> mk (Plan.Axis_step { s with input = go s.input })
    | Plan.Attribute_step s ->
        mk (Plan.Attribute_step { s with input = go s.input })
    | Plan.Path_lookup l -> mk (Plan.Path_lookup { l with input = go l.input })
    | Plan.Standoff_join j ->
        mk
          (Plan.Standoff_join
             {
               j with
               input = go j.input;
               candidates = Option.map go j.candidates;
             })
    | Plan.Filter { input; predicate } ->
        mk (Plan.Filter { input = go input; predicate = go predicate })
    | Plan.Attr_filter a -> mk (Plan.Attr_filter { a with input = go a.input })
    | Plan.Path_map { input; body } ->
        mk (Plan.Path_map { input = go input; body = go body })
    | Plan.Call { name; args } ->
        mk (Plan.Call { name; args = List.map go args })
    | Plan.Elem_ctor { tag; attrs; content } ->
        let part = function
          | Plan.Fixed s -> Plan.Fixed s
          | Plan.Enclosed e -> Plan.Enclosed (go e)
        in
        mk
          (Plan.Elem_ctor
             {
               tag;
               attrs = List.map (fun (n, ps) -> (n, List.map part ps)) attrs;
               content = List.map part content;
             })
  and rewrite (p : Plan.t) : Plan.t =
    match p.Plan.desc with
    (* -------- constant folding -------- *)
    | Plan.Sequence [ e ] -> e
    | Plan.Binop (op, a, b) -> (
        match fold_binop op a b with Some folded -> folded | None -> p)
    | Plan.Unary_minus { Plan.desc = Plan.Literal l; _ } -> (
        match literal_of_atomic (Atomic.negate (atomic_of_literal l)) with
        | Some l' -> Plan.make (Plan.Literal l')
        | None -> p)
    | Plan.If { cond; then_; else_ } -> (
        match static_ebv cond with
        | Some true -> then_
        | Some false -> else_
        | None -> p)
    | Plan.Where { cond; body } -> (
        match static_ebv cond with
        | Some true -> body
        | Some false -> Plan.make (Plan.Sequence [])
        | None -> p)
    (* -------- step/filter fusion -------- *)
    | Plan.Filter
        {
          input = { Plan.desc = Plan.Axis_step ({ position = None; _ } as s); _ };
          predicate;
        }
      when Option.is_some (positional_literal predicate) ->
        Plan.make
          (Plan.Axis_step { s with position = positional_literal predicate })
    | Plan.Filter
        {
          input =
            { Plan.desc = Plan.Standoff_join ({ position = None; _ } as j); _ };
          predicate;
        }
      when Option.is_some (positional_literal predicate) ->
        rewrite
          (Plan.make
             (Plan.Standoff_join
                { j with position = positional_literal predicate }))
    | Plan.Filter
        {
          input = { Plan.desc = Plan.Axis_step ({ position = None; _ } as s); _ };
          predicate;
        }
      when unnamed_test s.test && Option.is_some (self_name_test predicate)
      ->
        Plan.make
          (Plan.Axis_step
             { s with test = Node_test.Name (Option.get (self_name_test predicate)) })
    | Plan.Filter
        {
          input =
            {
              Plan.desc =
                Plan.Standoff_join
                  ({ position = None; candidates = None; _ } as j);
              _;
            };
          predicate;
        }
      when unnamed_test j.test && Option.is_some (self_name_test predicate)
      ->
        rewrite
          (Plan.make
             (Plan.Standoff_join
                {
                  j with
                  test = Node_test.Name (Option.get (self_name_test predicate));
                }))
    | Plan.Filter { input; predicate }
      when Option.is_some (attr_equality predicate) ->
        let attr, value = Option.get (attr_equality predicate) in
        Plan.make (Plan.Attr_filter { input; attr; value })
    (* -------- path collapse (strong DataGuide) -------- *)
    (* A child or descendant name step whose input chain bottoms out
       in a document-node source folds into one [Path_lookup]; the
       pass is bottom-up, so multi-step prefixes collapse
       incrementally: doc(…)/a -> PL[/a], PL[/a]//b -> PL[/a//b].
       Positional steps never collapse (the fused position is
       per-context-node, which the flattened candidate set cannot
       express); [a//b] arrives as child::b over
       descendant-or-self::node(), matched as one descendant step. *)
    | Plan.Axis_step
        { input; axis = Axes.Child; test = Node_test.Name n; position = None }
      when dataguide && Option.is_some (desc_or_self_over_base input) ->
        let root, steps = Option.get (desc_or_self_over_base input) in
        Plan.make (Plan.Path_lookup { input = root; steps = steps @ [ (true, n) ] })
    | Plan.Axis_step
        { input; axis = Axes.Child; test = Node_test.Name n; position = None }
      when dataguide && Option.is_some (path_base input) ->
        let root, steps = Option.get (path_base input) in
        Plan.make
          (Plan.Path_lookup { input = root; steps = steps @ [ (false, n) ] })
    | Plan.Axis_step
        {
          input;
          axis = Axes.Descendant;
          test = Node_test.Name n;
          position = None;
        }
      when dataguide && Option.is_some (path_base input) ->
        let root, steps = Option.get (path_base input) in
        Plan.make (Plan.Path_lookup { input = root; steps = steps @ [ (true, n) ] })
    (* -------- node-test pushdown + strategy pinning -------- *)
    | Plan.Standoff_join j ->
        let pushdown =
          match (j.candidates, Node_test.name_filter j.test) with
          | None, Some name -> pushdown_pays name
          | _ -> j.pushdown
        in
        let strategy =
          match pin_strategy with
          | Some s -> Plan.S_fixed s
          | None -> j.strategy
        in
        if pushdown = j.pushdown && strategy = j.strategy then p
        else Plan.make (Plan.Standoff_join { j with pushdown; strategy })
    | _ -> p
  in
  go plan

(* ------------------------------------------------------------------ *)
(* Cost estimation                                                    *)

(* A coarse work estimate in "rows touched": for every StandOff join,
   the candidate-set size its merge sweep will scan (the named-element
   count when the node test is pushed down into the region index, the
   whole annotation population otherwise), and for every named axis
   step the matching-element count.  The estimate only has to separate
   cheap requests (run sequential, leave domains to concurrent
   requests) from heavy ones (worth a parallel sweep), so additive
   and loop-blind is enough — the loop-lifted strategy amortizes
   iteration counts away by construction. *)
let estimate_cost ~stats plan =
  let total = ref 0 in
  let add n = total := !total + max 0 n in
  let rec go (p : Plan.t) =
    match p.Plan.desc with
    | Plan.Literal _ | Plan.Var _ | Plan.Context_item -> ()
    | Plan.Sequence es -> List.iter go es
    | Plan.For { source; order_by; body; _ } ->
        go source;
        List.iter (fun s -> go s.Plan.key) order_by;
        go body
    | Plan.Let { value; body; _ } ->
        go value;
        go body
    | Plan.Where { cond; body } ->
        go cond;
        go body
    | Plan.Quantified { source; satisfies; _ } ->
        go source;
        go satisfies
    | Plan.If { cond; then_; else_ } ->
        go cond;
        go then_;
        go else_
    | Plan.Binop (_, a, b) ->
        go a;
        go b
    | Plan.Unary_minus e -> go e
    | Plan.Axis_step { input; test; _ } ->
        (match Node_test.name_filter test with
        | Some name -> add (stats.st_named name)
        | None -> ());
        go input
    | Plan.Attribute_step { input; _ } -> go input
    | Plan.Path_lookup { input; steps } ->
        add (stats.st_path steps);
        go input
    | Plan.Standoff_join { input; test; pushdown; candidates; _ } ->
        (match (candidates, Node_test.name_filter test) with
        | None, Some name when pushdown -> add (stats.st_named name)
        | _ -> add (stats.st_annotations ()));
        go input;
        Option.iter go candidates
    | Plan.Filter { input; predicate } ->
        go input;
        go predicate
    | Plan.Attr_filter { input; _ } -> go input
    | Plan.Path_map { input; body } ->
        go input;
        go body
    | Plan.Call { args; _ } -> List.iter go args
    | Plan.Elem_ctor { attrs; content; _ } ->
        let part = function Plan.Fixed _ -> () | Plan.Enclosed e -> go e in
        List.iter (fun (_, ps) -> List.iter part ps) attrs;
        List.iter part content
  in
  go plan;
  !total
