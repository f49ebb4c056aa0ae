module Vec = Standoff_util.Vec
module Metrics = Standoff_obs.Metrics

let m_docs =
  Metrics.gauge "standoff_collection_docs"
    ~help:"Documents currently registered in the collection"

let m_doc_reads =
  Metrics.counter "standoff_collection_doc_reads_total"
    ~help:"Document handle lookups by id"

(* The lock serialises every access to the document Vec and the name
   tables: concurrent runs read documents while an ingest may push,
   and Vec growth swaps the backing array, so even reads must not race
   a push.  A run view copies the record, so it shares all four with
   the collection it was made from, and adds its own arena.  The arena
   needs no lock: only the domain evaluating the run pushes to it or
   reads from it. *)
type t = {
  lock : Mutex.t;
  docs : Doc.t Vec.t;
  by_name : (string, int) Hashtbl.t;
  blobs : (string, Blob.t) Hashtbl.t;
  arena : Doc.t Vec.t option;
}

(* Far above any real doc id, so arena documents sort after every
   shared one in document order. *)
let arena_base = 1 lsl 30
let in_arena id = id >= arena_base

let locked coll f =
  Mutex.lock coll.lock;
  match f () with
  | v ->
      Mutex.unlock coll.lock;
      v
  | exception e ->
      Mutex.unlock coll.lock;
      raise e

type node = {
  doc_id : int;
  pre : int;
}

let compare_node a b =
  let c = compare a.doc_id b.doc_id in
  if c <> 0 then c else compare a.pre b.pre

let create () =
  {
    lock = Mutex.create ();
    docs = Vec.create ();
    by_name = Hashtbl.create 8;
    blobs = Hashtbl.create 8;
    arena = None;
  }

let run_view coll = { coll with arena = Some (Vec.create ()) }

let add_constructed coll d =
  match coll.arena with
  | Some arena ->
      Vec.push arena d;
      arena_base + Vec.length arena - 1
  | None -> invalid_arg "Collection.add_constructed: not a run view"

let add coll d =
  locked coll (fun () ->
      let name = d.Doc.doc_name in
      if Hashtbl.mem coll.by_name name then
        invalid_arg
          (Printf.sprintf "Collection.add: duplicate document %S" name);
      let id = Vec.length coll.docs in
      Vec.push coll.docs d;
      Hashtbl.add coll.by_name name id;
      Metrics.gauge_add m_docs 1;
      id)

let add_blob coll b =
  locked coll (fun () ->
      let name = Blob.name b in
      if Hashtbl.mem coll.blobs name then
        invalid_arg
          (Printf.sprintf "Collection.add_blob: duplicate blob %S" name);
      Hashtbl.add coll.blobs name b)

let doc coll id =
  Metrics.incr m_doc_reads;
  let unknown () =
    invalid_arg (Printf.sprintf "Collection.doc: unknown id %d" id)
  in
  if in_arena id then
    match coll.arena with
    | Some arena when id - arena_base < Vec.length arena ->
        Vec.get arena (id - arena_base)
    | _ -> unknown ()
  else
    locked coll (fun () ->
        if id < 0 || id >= Vec.length coll.docs then unknown ();
        Vec.get coll.docs id)

let doc_id_of_name coll name =
  locked coll (fun () -> Hashtbl.find_opt coll.by_name name)

let blob coll name = locked coll (fun () -> Hashtbl.find_opt coll.blobs name)
let doc_count coll = locked coll (fun () -> Vec.length coll.docs)

let load_string coll ~name s = add coll (Doc.parse ~name s)

let fold_docs f acc coll =
  (* Snapshot under the lock, fold outside it — [f] may be arbitrary
     user code (and may itself take the lock via [add]). *)
  let snapshot = locked coll (fun () -> Vec.to_array coll.docs) in
  let acc = ref acc in
  Array.iteri (fun id d -> acc := f !acc id d) snapshot;
  !acc

let fold_blobs f acc coll =
  let blobs =
    locked coll (fun () ->
        Hashtbl.fold (fun _ blob acc -> blob :: acc) coll.blobs [])
  in
  List.fold_left f acc blobs
