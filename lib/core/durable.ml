module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Wal = Standoff_store.Wal
module Snapshot = Standoff_store.Snapshot
module Persist = Standoff_store.Persist
module Region = Standoff_interval.Region
module Failpoint = Standoff_util.Failpoint

exception Recovery_error of string

let wal_name = "wal.log"

type recovery = {
  rec_snapshot : (int * string) option;
  rec_replayed : int;
  rec_torn : string option;
}

type t = {
  dir : string;
  wal_path : string;
  mutable wal : Wal.t;
  coll : Collection.t;
  policy : Wal.fsync_policy;
  snapshot_every : int;  (* take a snapshot every n logged updates; 0 = only on demand *)
  keep : int;
  lock : Mutex.t;
  mutable last_snapshot_lsn : int;
  mutable since_snapshot : int;
  mutable closed : bool;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Updates are applied first and logged only if they validated — so a
   WAL record is an operation that *did* succeed against this store,
   and replay failing to apply one means the on-disk state has drifted
   from the log (e.g. the server was restarted over a different
   document set).  That is not recoverable-by-truncation; refuse. *)
let config_of_record ~start_attr ~end_attr ~ptype =
  {
    Config.start_name = start_attr;
    end_name = end_attr;
    region_name = None;
    position_type = ptype;
  }

let resolve_doc coll doc_name =
  match Collection.doc_id_of_name coll doc_name with
  | Some id -> Collection.doc coll id
  | None ->
      raise
        (Recovery_error
           (Printf.sprintf
              "WAL names document %S, which the store does not contain"
              doc_name))

let apply_op cat coll op =
  try
    match op with
    | Wal.Set_region { doc; start_attr; end_attr; ptype; pre; start_pos; end_pos }
      ->
        let doc = resolve_doc coll doc in
        let config = config_of_record ~start_attr ~end_attr ~ptype in
        Update.set_region cat config doc ~pre (Region.make start_pos end_pos)
    | Wal.Shift { doc; start_attr; end_attr; ptype; from; by } ->
        let doc = resolve_doc coll doc in
        let config = config_of_record ~start_attr ~end_attr ~ptype in
        ignore (Update.shift_annotations cat config doc ~from ~by)
    | Wal.Ingest { docs; blobs } ->
        (* Replaying an Ingest over a snapshot that already folded it
           in is filtered by the LSN check; the name check is a second
           belt over externally assembled directories. *)
        List.iter
          (fun (name, payload) ->
            if Collection.doc_id_of_name coll name = None then
              ignore (Collection.add coll (Persist.doc_of_string payload)))
          docs;
        List.iter
          (fun (name, contents) ->
            if Collection.blob coll name = None then
              Collection.add_blob coll
                (Standoff_store.Blob.of_string ~name contents))
          blobs
  with
  | Invalid_argument msg ->
      raise
        (Recovery_error (Printf.sprintf "WAL record does not apply: %s" msg))
  | Persist.Corrupt msg ->
      raise
        (Recovery_error
           (Printf.sprintf "WAL ingest payload does not decode: %s" msg))

let open_dir ?(policy = Wal.Always) ?(snapshot_every = 0) ?(keep = 2) ?seed dir
    =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Durable.open_dir: %s is not a directory" dir);
  let wal_path = Filename.concat dir wal_name in
  (* 1. Newest intact snapshot, if any, is the base state.  When one
     exists it *is* the collection — a seed is only consulted on first
     boot of an empty data directory. *)
  let coll, snapshot_lsn, rec_snapshot =
    match Snapshot.load_latest ~dir with
    | Some (lsn, _generation, coll, path) -> (coll, lsn, Some (lsn, path))
    | None ->
        let coll =
          match seed with Some f -> f () | None -> Collection.create ()
        in
        (coll, 0, None)
  in
  (* 2. Replay the WAL suffix.  Records at or below the snapshot LSN
     are already folded in; the monotonic filter also drops duplicated
     frames, which can only appear through external tampering. *)
  let replayed = Wal.replay wal_path in
  let cat = Catalog.create () in
  let applied = ref 0 in
  let last =
    List.fold_left
      (fun last (lsn, op) ->
        if lsn > last then begin
          apply_op cat coll op;
          incr applied;
          lsn
        end
        else last)
      snapshot_lsn replayed.Wal.r_ops
  in
  let applied = !applied in
  (* 3. Probe: the recovered columns must still satisfy every
     structural invariant of the shredded form. *)
  Collection.fold_docs
    (fun () _ d ->
      try Doc.check_invariants d
      with Failure msg ->
        raise
          (Recovery_error
             (Printf.sprintf "recovered document %S fails invariants: %s"
                d.Doc.doc_name msg)))
    () coll;
  let wal =
    Wal.open_append ~policy ~valid_bytes:replayed.Wal.r_valid_bytes
      ~next_lsn:(last + 1) wal_path
  in
  let t =
    {
      dir;
      wal_path;
      wal;
      coll;
      policy;
      snapshot_every;
      keep;
      lock = Mutex.create ();
      last_snapshot_lsn = snapshot_lsn;
      (* Replayed records are not yet covered by any snapshot: count
         them, so a clean shutdown right after recovery compacts. *)
      since_snapshot = applied;
      closed = false;
    }
  in
  ( t,
    {
      rec_snapshot;
      rec_replayed = applied;
      rec_torn = replayed.Wal.r_torn;
    } )

let collection t = t.coll

let log t op =
  locked t (fun () ->
      if t.closed then invalid_arg "Durable.log: store is closed";
      let lsn = Wal.append t.wal op in
      t.since_snapshot <- t.since_snapshot + 1;
      lsn)

(* Snapshot + WAL reset.  The caller must hold whatever writer
   exclusion protects the collection (the engine's exclusive lock):
   the collection is encoded here and must not move underneath us. *)
let snapshot t ~generation =
  locked t (fun () ->
      if t.closed then invalid_arg "Durable.snapshot: store is closed";
      Wal.flush t.wal;
      let lsn = Wal.next_lsn t.wal - 1 in
      let path = Snapshot.write ~dir:t.dir ~lsn ~generation t.coll in
      (* The snapshot is durable under its final name; anything the WAL
         still holds is now redundant.  A crash between the rename and
         this truncation merely replays records the snapshot already
         covers — the LSN filter in [open_dir] makes that idempotent. *)
      Failpoint.hit "snapshot.before_truncate";
      Wal.close t.wal;
      t.wal <- Wal.create ~policy:t.policy ~next_lsn:(lsn + 1) t.wal_path;
      t.last_snapshot_lsn <- lsn;
      t.since_snapshot <- 0;
      ignore (Snapshot.prune ~dir:t.dir ~keep:t.keep);
      path)

let maybe_snapshot t ~generation =
  let due =
    locked t (fun () ->
        (not t.closed) && t.snapshot_every > 0
        && t.since_snapshot >= t.snapshot_every)
  in
  if due then Some (snapshot t ~generation) else None

let dirty t = locked t (fun () -> t.since_snapshot > 0)

let close ?generation t =
  let want_snapshot =
    locked t (fun () -> (not t.closed) && t.since_snapshot > 0)
    && generation <> None
  in
  (match generation with
  | Some g when want_snapshot -> ignore (snapshot t ~generation:g)
  | _ -> ());
  locked t (fun () ->
      if not t.closed then begin
        Wal.close t.wal;
        t.closed <- true
      end)
