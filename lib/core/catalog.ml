type entry = {
  config : Config.t;
  annots : Annots.t;
}

type t = {
  lock : Mutex.t;
  table : (string, entry list ref) Hashtbl.t;
      (* Keyed on document name, which collections keep unique; the
         handful of configurations per document live in a short
         list. *)
  gens : (string, int) Hashtbl.t;
      (* Per-document generation counters, monotonic, never removed:
         they outlive the cached entries on purpose, so a cache keyed
         on (doc, generation) stays invalid across an
         update/rebuild cycle. *)
  mutable version : int;
      (* Catalogue-wide version: the sum of all per-document bumps.
         Monotonic, so an equal reading before and after some interval
         proves no invalidation happened in between — the stamp the
         engine's result cache relies on. *)
}

(* The unlock sits in a [Fun.protect] finaliser so no exception raised
   under the lock can leave the catalogue poisoned for other domains. *)
let locked cat f =
  Mutex.lock cat.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cat.lock) f

let create () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 8;
    gens = Hashtbl.create 8;
    version = 0;
  }

let find_entry cat key config doc =
  match Hashtbl.find_opt cat.table key with
  | None -> None
  | Some entries ->
      Option.map
        (fun e -> e.annots)
        (List.find_opt
           (fun e ->
             Config.equal e.config config && e.annots.Annots.doc == doc)
           !entries)

let annots cat config doc =
  let key = doc.Standoff_store.Doc.doc_name in
  let hit = locked cat (fun () -> find_entry cat key config doc) in
  match hit with
  | Some a -> a
  | None ->
      (* Extraction runs outside the lock, so lookups of other
         documents do not wait on it.  Two domains racing on the same
         (doc, config) at worst both extract; the second insert wins
         the check below and the loser result is dropped. *)
      let a = Annots.extract config doc in
      locked cat (fun () ->
          match find_entry cat key config doc with
          | Some other ->
              other (* someone beat us to it; keep theirs for stability *)
          | None ->
              let entries =
                match Hashtbl.find_opt cat.table key with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add cat.table key r;
                    r
              in
              entries := { config; annots = a } :: !entries;
              a)

(* Call under the lock; returns the generation before the bump. *)
let bump_generation cat name =
  let gen = Option.value ~default:0 (Hashtbl.find_opt cat.gens name) in
  Hashtbl.replace cat.gens name (gen + 1);
  cat.version <- cat.version + 1;
  gen

type region_change =
  | Moved of {
      config : Config.t;
      pre : int;
      region : Standoff_interval.Region.t;
    }
  | Shifted

let regions_changed cat doc change =
  let name = doc.Standoff_store.Doc.doc_name in
  locked cat (fun () ->
      (match (change, Hashtbl.find_opt cat.table name) with
      | Moved { config; pre; region }, Some entries -> (
          (* Only the table of the updating configuration is patched;
             tables under other attribute names or position types are
             dropped, like stale entries of a re-registered name. *)
          entries :=
            List.filter
              (fun e ->
                Config.equal e.config config && e.annots.Annots.doc == doc)
              !entries;
          (* [Annots.move] refuses a row it cannot find without
             touching the table; rebuilding from the rewritten
             attributes then beats serving the stale table. *)
          try List.iter (fun e -> Annots.move e.annots ~pre region) !entries
          with Invalid_argument _ -> Hashtbl.remove cat.table name)
      | _ -> Hashtbl.remove cat.table name);
      let gen = bump_generation cat name in
      (* A region change alters no element path, so the guide stays
         right under the new generation. *)
      Standoff_store.Dataguide.restamp doc ~from:gen ~generation:(gen + 1))

let bump cat = locked cat (fun () -> cat.version <- cat.version + 1)

let generation cat name =
  locked cat (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt cat.gens name))

let version cat = locked cat (fun () -> cat.version)
