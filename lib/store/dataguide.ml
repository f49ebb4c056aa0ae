(* Strong DataGuide over a shredded document (Goldman & Widom, adapted
   to the pre/size/level encoding): one guide node per distinct
   root-to-node label path, annotated with the sorted pre ranks of the
   elements on that path.  A multi-step child/descendant path then
   resolves to its full candidate set in one walk over the (tiny)
   guide tree instead of one axis sweep per step.

   Construction is a single pre-order pass.  The pass parallelises
   over contiguous pre ranges exactly like the region-index build:
   within a chunk [lo, hi), any element whose parent precedes the
   chunk has that parent on [lo]'s ancestor chain (parent p < lo <= e
   and e <= p + size(p) imply p properly contains lo), so seeding a
   chunk-local guide with lo's ancestors makes every chunk
   independent; chunk guides merge left-to-right, which keeps each
   path's pre list sorted because chunk ranges ascend. *)

module Vec = Standoff_util.Vec
module Pool = Standoff_util.Pool
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

(* Chunk-local build tree; converted to the immutable-array
   [Doc.guide_node] form once all chunks are merged. *)
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

(* The guide node standing for element [pre]'s label path, entered
   into [stack] at [pre]'s level.  [stack.(l)] holds the guide node of
   the most recent element (or document) node at level [l]; since the
   scan is in pre order, that node is exactly the parent of the next
   level-[l+1] element. *)
let enter_element (d : Doc.t) stack pre =
  let l = d.Doc.level.(pre) in
  if Array.length !stack <= l then begin
    let grown = Array.make (max (l + 1) (2 * Array.length !stack)) !stack.(0) in
    Array.blit !stack 0 grown 0 (Array.length !stack);
    stack := grown
  end;
  let g = child_of !stack.(l - 1) d.Doc.name.(pre) in
  !stack.(l) <- g;
  g

(* Build the guide of the pre range [lo, hi), seeded with lo's proper
   ancestors so parents outside the chunk resolve locally. *)
let build_chunk (d : Doc.t) ~lo ~hi =
  let root = bnode (-1) in
  let stack = ref (Array.make 16 root) in
  let rec seed pre =
    if pre > 0 then seed d.Doc.parent.(pre);
    if pre > 0 && pre < lo && d.Doc.kind.(pre) = Doc.Element then
      ignore (enter_element d stack pre)
  in
  if lo > 0 then seed d.Doc.parent.(lo);
  for pre = lo to hi - 1 do
    if d.Doc.kind.(pre) = Doc.Element then
      Vec.push (enter_element d stack pre).b_pres pre
  done;
  root

(* Left-to-right merge: append [src]'s pres (all greater than any pre
   already in [dst], because chunk ranges ascend) and recurse on
   children. *)
let rec merge_into dst src =
  for i = 0 to Vec.length src.b_pres - 1 do
    Vec.push dst.b_pres (Vec.get src.b_pres i)
  done;
  Hashtbl.iter
    (fun name c -> merge_into (child_of dst name) c)
    src.b_children

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

let build ?pool ~generation (d : Doc.t) =
  let root, elapsed =
    Timing.time (fun () ->
        let n = Doc.node_count d in
        let chunks =
          match pool with
          | Some p when Pool.jobs p > 1 ->
              Pool.parallel_chunks p ~min_chunk:4096 ~n (fun ~chunk:_ ~lo ~hi ->
                  build_chunk d ~lo ~hi)
          | _ -> [| build_chunk d ~lo:0 ~hi:n |]
        in
        let acc = chunks.(0) in
        for i = 1 to Array.length chunks - 1 do
          merge_into acc chunks.(i)
        done;
        freeze acc)
  in
  let paths = count_paths root - 1 in
  Metrics.incr m_builds;
  Metrics.observe m_build_seconds elapsed;
  Metrics.add m_paths paths;
  { Doc.guide_root = root; guide_paths = paths; guide_generation = generation }

let get ?pool ~generation (d : Doc.t) =
  match Doc.dataguide_cache d with
  | Some g when g.Doc.guide_generation = generation -> g
  | _ ->
      Doc.with_index_lock d (fun () ->
          match Doc.dataguide_cache d with
          | Some g when g.Doc.guide_generation = generation -> g
          | _ ->
              let g = build ?pool ~generation d in
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
