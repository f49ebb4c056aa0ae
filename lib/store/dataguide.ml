(* Strong DataGuide over a shredded document (Goldman & Widom, adapted
   to the pre/size/level encoding): one guide node per distinct
   root-to-node label path, annotated with the sorted pre ranks of the
   elements on that path.  A multi-step child/descendant path then
   resolves to its full candidate set in one walk over the (tiny)
   guide tree instead of one axis sweep per step.

   Construction is a single pre-order pass. *)

module Vec = Standoff_util.Vec
module Timing = Standoff_util.Timing
module Metrics = Standoff_obs.Metrics

type step = bool * string
(* [(descendant, name)]: [false] = child step [/name], [true] =
   descendant step [//name], both starting from the document node for
   the first step and from the previous step's matches after. *)

let m_builds =
  Metrics.counter "standoff_dataguide_builds_total"
    ~help:"DataGuide constructions (first touch or post-update rebuild)"

let m_build_seconds =
  Metrics.histogram "standoff_dataguide_build_seconds"
    ~buckets:Metrics.duration_buckets
    ~help:"Wall time of DataGuide constructions"

let m_paths =
  Metrics.counter "standoff_dataguide_paths_total"
    ~help:"Distinct label paths summarised, accumulated over builds"

let m_probes =
  Metrics.counter "standoff_dataguide_probes_total"
    ~help:"Path lookups answered from a DataGuide"

let m_probe_hits =
  Metrics.counter "standoff_dataguide_probe_hits_total"
    ~help:"Path lookups that matched at least one element"

(* Mutable build tree; converted to the immutable-array
   [Doc.guide_node] form once the pass is done. *)
type bnode = {
  b_name : int;
  b_pres : int Vec.t;
  b_children : (int, bnode) Hashtbl.t;
}

let bnode name = { b_name = name; b_pres = Vec.create (); b_children = Hashtbl.create 4 }

let child_of b name =
  match Hashtbl.find_opt b.b_children name with
  | Some c -> c
  | None ->
      let c = bnode name in
      Hashtbl.add b.b_children name c;
      c

(* One pre-order pass.  [stack.(l)] holds the guide node of the most
   recent element (or document) node at level [l]; since the scan is
   in pre order, that node is exactly the parent of the next
   level-[l+1] element, so each element's label path is one child
   lookup away. *)
let build_tree (d : Doc.t) =
  let root = bnode (-1) in
  let stack = ref (Array.make 16 root) in
  for pre = 0 to Doc.node_count d - 1 do
    if d.Doc.kind.(pre) = Doc.Element then begin
      let l = d.Doc.level.(pre) in
      if Array.length !stack <= l then begin
        let grown = Array.make (max (l + 1) (2 * Array.length !stack)) root in
        Array.blit !stack 0 grown 0 (Array.length !stack);
        stack := grown
      end;
      let g = child_of !stack.(l - 1) d.Doc.name.(pre) in
      !stack.(l) <- g;
      Vec.push g.b_pres pre
    end
  done;
  root

let rec freeze b =
  let node =
    {
      Doc.g_name = b.b_name;
      g_pres = Vec.to_array b.b_pres;
      g_children = Hashtbl.create (Hashtbl.length b.b_children);
    }
  in
  Hashtbl.iter
    (fun name c -> Hashtbl.add node.Doc.g_children name (freeze c))
    b.b_children;
  node

let rec count_paths g =
  Hashtbl.fold (fun _ c acc -> acc + count_paths c) g.Doc.g_children 1

let build ~generation (d : Doc.t) =
  let root, elapsed = Timing.time (fun () -> freeze (build_tree d)) in
  let paths = count_paths root - 1 in
  Metrics.incr m_builds;
  Metrics.observe m_build_seconds elapsed;
  Metrics.add m_paths paths;
  { Doc.guide_root = root; guide_paths = paths; guide_generation = generation }

let get ~generation (d : Doc.t) =
  match Doc.dataguide_cache d with
  | Some g when g.Doc.guide_generation = generation -> g
  | _ ->
      Doc.with_index_lock d (fun () ->
          match Doc.dataguide_cache d with
          | Some g when g.Doc.guide_generation = generation -> g
          | _ ->
              let g = build ~generation d in
              Doc.publish_dataguide d g;
              g)

let restamp (d : Doc.t) ~from ~generation =
  match Doc.dataguide_cache d with
  | Some g when g.Doc.guide_generation = from ->
      g.Doc.guide_generation <- generation
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

(* All guide nodes matching [steps] from [roots].  Distinct guide
   nodes carry disjoint pre sets (every element lies on exactly one
   label path), but a descendant step can reach the same guide node
   from two nested frontier nodes, so matches dedup on physical
   identity. *)
let matching_nodes roots steps =
  let step frontier (desc, nid) =
    let out = ref [] in
    let add g = if not (List.memq g !out) then out := g :: !out in
    let rec descend g =
      Hashtbl.iter
        (fun name c ->
          if name = nid then add c;
          descend c)
        g.Doc.g_children
    in
    List.iter
      (fun g ->
        if desc then descend g
        else
          match Hashtbl.find_opt g.Doc.g_children nid with
          | Some c -> add c
          | None -> ())
      frontier;
    !out
  in
  List.fold_left step roots steps

(* Resolve the step names against the document's name pool; an unknown
   name means the path matches nothing. *)
let intern_steps (d : Doc.t) steps =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (desc, name) :: rest -> (
        match Name_pool.find d.Doc.names name with
        | Some nid -> go ((desc, nid) :: acc) rest
        | None -> None)
  in
  go [] steps

(* K-way merge of pairwise-disjoint sorted arrays.  The singleton case
   returns the guide's own array, shared — callers must not mutate
   (same contract as [Doc.elements_named]). *)
let merge_sorted = function
  | [] -> [||]
  | [ a ] -> a
  | arrays ->
      let arrays = Array.of_list arrays in
      let k = Array.length arrays in
      let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
      let out = Array.make total 0 in
      let idx = Array.make k 0 in
      for o = 0 to total - 1 do
        let best = ref (-1) in
        for i = 0 to k - 1 do
          if
            idx.(i) < Array.length arrays.(i)
            && (!best < 0
               || arrays.(i).(idx.(i)) < arrays.(!best).(idx.(!best)))
          then best := i
        done;
        out.(o) <- arrays.(!best).(idx.(!best));
        idx.(!best) <- idx.(!best) + 1
      done;
      out

let lookup (d : Doc.t) (g : Doc.guide) steps =
  Metrics.incr m_probes;
  let pres =
    match intern_steps d steps with
    | None -> [||]
    | Some steps ->
        merge_sorted
          (List.map
             (fun node -> node.Doc.g_pres)
             (matching_nodes [ g.Doc.guide_root ] steps))
  in
  if Array.length pres > 0 then Metrics.incr m_probe_hits;
  pres

let count (d : Doc.t) (g : Doc.guide) steps =
  match intern_steps d steps with
  | None -> 0
  | Some steps ->
      List.fold_left
        (fun acc node -> acc + Array.length node.Doc.g_pres)
        0
        (matching_nodes [ g.Doc.guide_root ] steps)

let path_count (g : Doc.guide) = g.Doc.guide_paths
