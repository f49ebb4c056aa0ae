(* Crash-recovery harness for the durable store (WAL + snapshots).

   The crash model is process death: a crash can abandon buffers and
   tear the write in flight, but bytes already written to the file
   descriptor survive.  [Failpoint.arm] + [Injected_crash] simulate
   exactly that in-process — the store handle is abandoned (never
   closed, never flushed) at the armed point, leaving the files
   byte-identical to a SIGKILL there — and recovery then runs against
   the same directory.

   The property under test, at every failpoint: the recovered state is
   the state produced by an exact *prefix* of the submitted updates,
   that prefix covers every acknowledged update, and queries over the
   recovered store are byte-identical to an in-memory reference under
   all four strategies.  Never a torn, reordered, or partial-update
   state. *)

module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Wal = Standoff_store.Wal
module Snapshot = Standoff_store.Snapshot
module Codec = Standoff_util.Codec
module Failpoint = Standoff_util.Failpoint
module Config = Standoff.Config
module Catalog = Standoff.Catalog
module Update = Standoff.Update
module Durable = Standoff.Durable
module Region = Standoff_interval.Region
module Engine = Standoff_xquery.Engine

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)

let ctr = ref 0

let fresh_dir () =
  incr ctr;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "standoff-wal-test-%d-%d" (Unix.getpid ()) !ctr)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* The store under test: one document, fixed [word] annotations and
   updatable [sent] annotations.                                       *)

let n_words = 20
let n_sents = 5

let doc_xml =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<doc>";
  for i = 0 to n_words - 1 do
    Buffer.add_string b
      (Printf.sprintf "<word start=\"%d\" end=\"%d\"/>" (i * 10) ((i * 10) + 9))
  done;
  for j = 0 to n_sents - 1 do
    Buffer.add_string b
      (Printf.sprintf "<sent start=\"%d\" end=\"%d\"/>" (j * 40) ((j * 40) + 39))
  done;
  Buffer.add_string b "</doc>";
  Buffer.contents b

let seed () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"d.xml" doc_xml);
  coll

let the_doc coll =
  Collection.doc coll (Option.get (Collection.doc_id_of_name coll "d.xml"))

(* Update number [k] (1-based), deterministic: move one sentence to a
   k-dependent region, so every distinct update count yields a distinct
   state. *)
let update_region k =
  let s = k * 13 mod 120 in
  Region.make_int s (s + 30 + (k mod 3))

let update_pre doc k =
  let pres = Doc.elements_named doc "sent" in
  pres.(k mod Array.length pres)

let apply_direct cat coll k =
  let doc = the_doc coll in
  Update.set_region cat Config.default doc ~pre:(update_pre doc k)
    (update_region k)

let apply_via_engine eng k =
  let doc = the_doc (Engine.collection eng) in
  Engine.set_region eng Config.default doc ~pre:(update_pre doc k)
    (update_region k)

let fingerprint coll =
  let doc = the_doc coll in
  Doc.elements_named doc "sent" |> Array.to_list
  |> List.map (fun pre ->
         Printf.sprintf "%s:%s"
           (Option.value ~default:"?" (Doc.attribute doc pre "start"))
           (Option.value ~default:"?" (Doc.attribute doc pre "end")))
  |> String.concat " "

(* In-memory reference: seed + the first [ks] updates, no durability. *)
let reference ks =
  let coll = seed () in
  let cat = Catalog.create () in
  List.iter (fun k -> apply_direct cat coll k) ks;
  coll

let rec range a b = if a > b then [] else a :: range (a + 1) b

let probe_query =
  "for $s in doc(\"d.xml\")//sent return count($s/select-narrow::word)"

let run_probe ?strategy eng = (Engine.run eng ?strategy probe_query).Engine.serialized

(* ------------------------------------------------------------------ *)
(* The full stack: an engine over a durable store                     *)

let open_stack ?policy ?snapshot_every dir =
  let d, recovery = Durable.open_dir ?policy ?snapshot_every ~seed dir in
  let eng = Engine.create ~jobs:1 ~durable:d (Durable.collection d) in
  (d, eng, recovery)

(* Submit [total] updates, with [failpoint] armed to fire during update
   number [crash_on].  Returns how many were acknowledged (completed
   without the crash). *)
let submit_until_crash eng ~failpoint ~crash_on ~total =
  Failpoint.arm ~after:crash_on failpoint;
  let acked = ref 0 in
  (try
     for k = 1 to total do
       apply_via_engine eng k;
       incr acked
     done;
     Failpoint.clear ();
     Alcotest.failf "failpoint %s never fired" failpoint
   with Failpoint.Injected_crash _ -> ());
  Failpoint.clear ();
  !acked

(* ------------------------------------------------------------------ *)
(* The crash matrix: every WAL failpoint x several crash positions     *)

let check_recovered ~ctx ~expected ~acked eng2 recovery =
  Alcotest.(check int)
    (ctx ^ ": recovered update count")
    expected recovery.Durable.rec_replayed;
  Alcotest.(check bool)
    (ctx ^ ": acknowledged prefix covered")
    true
    (expected >= acked);
  let ref_coll = reference (range 1 expected) in
  Alcotest.(check string)
    (ctx ^ ": recovered state is the exact prefix state")
    (fingerprint ref_coll)
    (fingerprint (Engine.collection eng2));
  (* Query byte-identity over the recovered store, all four strategies
     against the in-memory reference. *)
  let ref_eng = Engine.create ~jobs:1 ref_coll in
  let want = run_probe ref_eng in
  List.iter
    (fun strategy ->
      Alcotest.(check string)
        (Printf.sprintf "%s: probe bytes (%s)" ctx
           (Config.strategy_to_string strategy))
        want
        (run_probe ~strategy eng2))
    Config.all_strategies

let test_crash_matrix () =
  let cases =
    [
      (* A crash mid-append tears the record: it must be discarded, so
         exactly the updates *before* it survive. *)
      ("wal.mid_append", (fun c -> c - 1), true);
      (* A crash after the full write but before fsync: under the
         process-crash model the bytes are already with the kernel, so
         the record survives — more than was acknowledged, which the
         prefix property allows. *)
      ("wal.before_fsync", (fun c -> c), false);
      (* After append + fsync but before the response: durable, not yet
         acknowledged.  Survives. *)
      ("wal.after_append", (fun c -> c), false);
    ]
  in
  List.iter
    (fun (failpoint, expect, expect_torn) ->
      List.iter
        (fun crash_on ->
          let total = 6 in
          let ctx = Printf.sprintf "%s@%d" failpoint crash_on in
          let dir = fresh_dir () in
          let _d, eng, _ = open_stack dir in
          let acked = submit_until_crash eng ~failpoint ~crash_on ~total in
          Alcotest.(check int) (ctx ^ ": acked") (crash_on - 1) acked;
          (* [_d]/[eng] abandoned un-closed, as a killed process. *)
          let d2, eng2, recovery = open_stack dir in
          Alcotest.(check bool)
            (ctx ^ ": torn tail detected")
            expect_torn
            (recovery.Durable.rec_torn <> None);
          check_recovered ~ctx ~expected:(expect crash_on) ~acked eng2 recovery;
          Durable.close d2;
          rm_rf dir)
        [ 1; 3; 6 ])
    cases

(* After a crash + recovery the store must keep working: new updates
   append cleanly after the truncated tail, and a clean shutdown
   snapshot makes the next boot replay nothing. *)
let test_continue_after_recovery () =
  let dir = fresh_dir () in
  let _d, eng, _ = open_stack dir in
  let _acked = submit_until_crash eng ~failpoint:"wal.mid_append" ~crash_on:3 ~total:6 in
  let _d2, eng2, recovery = open_stack dir in
  Alcotest.(check int) "recovered 2" 2 recovery.Durable.rec_replayed;
  apply_via_engine eng2 3;
  apply_via_engine eng2 4;
  (* Clean shutdown: compacting snapshot. *)
  Engine.shutdown eng2;
  let d3, eng3, recovery3 = open_stack dir in
  Alcotest.(check bool)
    "rebooted from a snapshot" true
    (recovery3.Durable.rec_snapshot <> None);
  Alcotest.(check int) "nothing to replay" 0 recovery3.Durable.rec_replayed;
  Alcotest.(check string) "final state"
    (fingerprint (reference [ 1; 2; 3; 4 ]))
    (fingerprint (Engine.collection eng3));
  Durable.close d3;
  rm_rf dir

(* Updates applied over a warm catalogue patch the cached region index
   and re-stamp the DataGuide instead of dropping them.  The WAL must
   still carry everything recovery needs: after a crash, the recovered
   store (cold caches) answers every probe exactly as the live,
   patched one did. *)
let test_warm_updates_recover () =
  let dir = fresh_dir () in
  let _d, eng, _ = open_stack dir in
  let probes =
    [
      probe_query;
      "for $w in doc(\"d.xml\")/doc/word return count($w/select-wide::sent)";
      "count(doc(\"d.xml\")//sent/reject-narrow::*)";
    ]
  in
  let answers eng =
    List.concat_map
      (fun q ->
        List.map
          (fun strategy -> (Engine.run eng ~strategy q).Engine.serialized)
          Config.all_strategies)
      probes
  in
  ignore (answers eng);
  for k = 1 to 8 do
    apply_via_engine eng k;
    ignore (answers eng)
  done;
  ignore
    (Engine.shift_annotations eng Config.default
       (the_doc (Engine.collection eng)) ~from:50L ~by:3L);
  apply_via_engine eng 9;
  let live = answers eng in
  (* Abandoned un-closed, as a killed process. *)
  let d2, eng2, recovery = open_stack dir in
  Alcotest.(check int) "every update replayed" 10 recovery.Durable.rec_replayed;
  Alcotest.(check string) "recovered regions"
    (fingerprint (Engine.collection eng))
    (fingerprint (Engine.collection eng2));
  Alcotest.(check (list string)) "recovered answers = live answers" live
    (answers eng2);
  Durable.close d2;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Snapshot failpoints                                                 *)

let test_snapshot_crashes () =
  (* A crash inside the snapshot write (tmp file torn or complete but
     not renamed) must leave recovery to the WAL alone; a crash after
     the rename but before the WAL reset must not double-apply. *)
  List.iter
    (fun (failpoint, expect_snapshot, expect_replayed) ->
      let dir = fresh_dir () in
      let d, eng, _ = open_stack dir in
      List.iter (fun k -> apply_via_engine eng k) (range 1 4);
      Failpoint.arm failpoint;
      (match Durable.snapshot d ~generation:0 with
      | _path -> Alcotest.failf "failpoint %s never fired" failpoint
      | exception Failpoint.Injected_crash _ -> ());
      Failpoint.clear ();
      let d2, eng2, recovery = open_stack dir in
      Alcotest.(check bool)
        (failpoint ^ ": snapshot visibility")
        expect_snapshot
        (recovery.Durable.rec_snapshot <> None);
      Alcotest.(check int)
        (failpoint ^ ": replayed")
        expect_replayed recovery.Durable.rec_replayed;
      Alcotest.(check string)
        (failpoint ^ ": state")
        (fingerprint (reference (range 1 4)))
        (fingerprint (Engine.collection eng2));
      (* The store still compacts cleanly afterwards (prune also sweeps
         any leftover tmp file from the torn write). *)
      ignore (Durable.snapshot d2 ~generation:0);
      Array.iter
        (fun f ->
          Alcotest.(check bool)
            (failpoint ^ ": no tmp leftovers after snapshot")
            false
            (Filename.check_suffix f ".tmp"))
        (Sys.readdir dir);
      Durable.close d2;
      rm_rf dir)
    [
      ("snapshot.mid_write", false, 4);
      ("snapshot.before_rename", false, 4);
      ("snapshot.before_truncate", true, 0);
    ]

(* ------------------------------------------------------------------ *)
(* Corrupt-WAL table tests (raw Wal layer)                             *)

let sample_ops =
  [
    Wal.Set_region
      {
        doc = "d.xml";
        start_attr = "start";
        end_attr = "end";
        ptype = "xs:integer";
        pre = 22;
        start_pos = 5L;
        end_pos = 17L;
      };
    Wal.Shift
      {
        doc = "d.xml";
        start_attr = "s";
        end_attr = "e";
        ptype = "xs:integer";
        from = 100L;
        by = -3L;
      };
    Wal.Set_region
      {
        doc = "other.xml";
        start_attr = "from";
        end_attr = "to";
        ptype = "xs:decimal";
        pre = 1;
        start_pos = 0L;
        end_pos = Int64.max_int;
      };
  ]

let write_sample_wal path =
  let w = Wal.create ~next_lsn:1 path in
  List.iter (fun op -> ignore (Wal.append w op)) sample_ops;
  Wal.close w

let wal_header_len = 6 (* "SOWAL" + version byte *)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let test_corrupt_wal_table () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  write_sample_wal path;
  let intact = read_file path in
  (* Byte boundary of record 3: the file length after writing only the
     first two records. *)
  let two_records =
    let p2 = Filename.concat dir "two.log" in
    let w = Wal.create ~next_lsn:1 p2 in
    List.iteri (fun i op -> if i < 2 then ignore (Wal.append w op)) sample_ops;
    Wal.close w;
    let s = read_file p2 in
    Sys.remove p2;
    String.length s
  in

  (* Baseline: all three records replay, in order, with their LSNs. *)
  let r = Wal.replay path in
  Alcotest.(check int) "baseline count" 3 (List.length r.Wal.r_ops);
  Alcotest.(check (list int)) "baseline lsns" [ 1; 2; 3 ]
    (List.map fst r.Wal.r_ops);
  Alcotest.(check bool) "baseline ops" true
    (List.map snd r.Wal.r_ops = sample_ops);
  Alcotest.(check bool) "baseline clean" true (r.Wal.r_torn = None);
  Alcotest.(check int) "baseline valid_bytes" (String.length intact)
    r.Wal.r_valid_bytes;

  (* Truncated tail: the torn record is dropped, the prefix survives. *)
  write_file path (String.sub intact 0 (String.length intact - 3));
  let r = Wal.replay path in
  Alcotest.(check int) "truncated: prefix" 2 (List.length r.Wal.r_ops);
  Alcotest.(check bool) "truncated: torn" true (r.Wal.r_torn <> None);
  Alcotest.(check int) "truncated: valid_bytes" two_records r.Wal.r_valid_bytes;

  (* Bit flip inside the last record's payload: checksum rejects it. *)
  write_file path (flip_byte intact (String.length intact - 1));
  let r = Wal.replay path in
  Alcotest.(check int) "flip last: prefix" 2 (List.length r.Wal.r_ops);
  Alcotest.(check (option string))
    "flip last: reason" (Some "checksum mismatch") r.Wal.r_torn;

  (* Bit flip inside a *middle* record: replay keeps the prefix before
     the damage and refuses to skip over it. *)
  write_file path (flip_byte intact (two_records - 2));
  let r = Wal.replay path in
  Alcotest.(check int) "flip middle: prefix" 1 (List.length r.Wal.r_ops);
  Alcotest.(check bool) "flip middle: stopped" true (r.Wal.r_torn <> None);

  (* Garbage magic: not a WAL at all — loud failure, not quiet reset. *)
  write_file path ("XXXXX" ^ String.sub intact 5 (String.length intact - 5));
  Alcotest.(check bool) "bad magic raises Corrupt" true
    (match Wal.replay path with
    | exception Wal.Corrupt _ -> true
    | _ -> false);

  (* A checksummed record that does not decode is corruption, not a
     torn tail: craft a frame with a valid checksum and a bad op tag. *)
  let bogus =
    let w = Codec.Writer.create () in
    Codec.Writer.varint w 1;
    Codec.Writer.byte w 99;
    let payload = Codec.Writer.contents w in
    let le32 v =
      String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
    in
    String.sub intact 0 wal_header_len
    ^ le32 (String.length payload)
    ^ le32 (Codec.fletcher32 payload)
    ^ payload
  in
  write_file path bogus;
  Alcotest.(check bool) "undecodable record raises Corrupt" true
    (match Wal.replay path with
    | exception Wal.Corrupt _ -> true
    | _ -> false);

  (* Zero-length file: clean empty replay (a crash before the header
     write acknowledged nothing). *)
  write_file path "";
  let r = Wal.replay path in
  Alcotest.(check int) "empty: none" 0 (List.length r.Wal.r_ops);
  Alcotest.(check bool) "empty: clean" true (r.Wal.r_torn = None);

  (* Missing file: same. *)
  Sys.remove path;
  let r = Wal.replay path in
  Alcotest.(check int) "missing: none" 0 (List.length r.Wal.r_ops);

  (* Duplicated records (the whole body twice): every frame is intact,
     so raw replay surfaces all of them — deduplication is the
     recovery layer's job (next test). *)
  let body = String.sub intact wal_header_len (String.length intact - wal_header_len) in
  write_file path (String.sub intact 0 wal_header_len ^ body ^ body);
  let r = Wal.replay path in
  Alcotest.(check (list int)) "duplicate: lsns surface" [ 1; 2; 3; 1; 2; 3 ]
    (List.map fst r.Wal.r_ops);
  rm_rf dir

(* Durable recovery over a WAL with duplicated frames: the monotonic
   LSN filter must apply each update once, in order. *)
let test_duplicate_records_filtered () =
  let dir = fresh_dir () in
  let _d, eng, _ = open_stack dir in
  List.iter (fun k -> apply_via_engine eng k) (range 1 3);
  (* Abandon the stack un-closed; then duplicate the record body, as
     tampering or a buggy copy might. *)
  let path = Filename.concat dir "wal.log" in
  let s = read_file path in
  let body = String.sub s wal_header_len (String.length s - wal_header_len) in
  write_file path (String.sub s 0 wal_header_len ^ body ^ body);
  let d2, eng2, recovery = open_stack dir in
  Alcotest.(check int) "applied once each" 3 recovery.Durable.rec_replayed;
  Alcotest.(check string) "state"
    (fingerprint (reference (range 1 3)))
    (fingerprint (Engine.collection eng2));
  Durable.close d2;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Bulk ingestion                                                      *)

(* The batched Ingest record survives the codec and the file format. *)
let test_ingest_record_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let op =
    Wal.Ingest
      {
        docs = [ ("a.xml", "payload-a"); ("b \xc3\xa9.xml", "payload \x00 b") ];
        blobs = [ ("a.xml.blob", "text\nwith\nnewlines"); ("empty", "") ];
      }
  in
  let w = Wal.create ~next_lsn:1 path in
  ignore (Wal.append w op);
  Wal.close w;
  (match (Wal.replay path).Wal.r_ops with
  | [ (1, op') ] -> Alcotest.(check bool) "decodes identically" true (op = op')
  | _ -> Alcotest.fail "expected exactly one record");
  rm_rf dir

let converted name xml =
  let conv =
    Standoff_convert.Convert.to_standoff (Standoff_xml.Parser.parse_string xml)
  in
  ( Doc.of_dom ~name conv.Standoff_convert.Convert.doc,
    (name ^ ".blob", conv.Standoff_convert.Convert.blob) )

(* A batch ingested through the engine is one WAL record, and comes
   back whole — documents, converted extents, blobs — after a crash
   (stack abandoned un-closed, no snapshot).  A snapshot then absorbs
   it like any other update. *)
let test_ingest_recovery () =
  let dir = fresh_dir () in
  let _d, eng, _ = open_stack dir in
  let d1, b1 = converted "i1.xml" "<p><w>one</w> <w>two</w></p>" in
  let d2, b2 = converted "i2.xml" "<p><w>three</w></p>" in
  ignore (Engine.ingest eng [ d1; d2 ] [ b1; b2 ]);
  (* a post-ingest in-place update rides the same log *)
  apply_via_engine eng 1;
  let dur2, eng2, recovery = open_stack dir in
  Alcotest.(check int) "one batch record + one update record" 2
    recovery.Durable.rec_replayed;
  let coll = Engine.collection eng2 in
  Alcotest.(check bool) "documents recovered" true
    (Collection.doc_id_of_name coll "i1.xml" <> None
    && Collection.doc_id_of_name coll "i2.xml" <> None);
  Alcotest.(check bool) "blobs recovered" true
    (Collection.blob coll "i1.xml.blob" <> None
    && Collection.blob coll "i2.xml.blob" <> None);
  Alcotest.(check string) "recovered extents answer containment" "2"
    (Engine.run eng2 "count(doc(\"i1.xml\")//p/select-narrow::w)")
      .Engine.serialized;
  Alcotest.(check string) "post-ingest update recovered"
    (fingerprint (reference [ 1 ]))
    (fingerprint coll);
  Alcotest.(check bool) "engine snapshot written" true
    (Engine.snapshot eng2 <> None);
  Durable.close dur2;
  let dur3, eng3, recovery3 = open_stack dir in
  Alcotest.(check int) "snapshot absorbed the batch" 0
    recovery3.Durable.rec_replayed;
  Alcotest.(check string) "still answering after compaction" "2"
    (Engine.run eng3 "count(doc(\"i1.xml\")//p/select-narrow::w)")
      .Engine.serialized;
  Durable.close dur3;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Fsync policies                                                      *)

let test_fsync_policy_parse () =
  Alcotest.(check bool) "always" true (Wal.fsync_policy_of_string "always" = Wal.Always);
  Alcotest.(check bool) "never" true (Wal.fsync_policy_of_string "never" = Wal.Never);
  Alcotest.(check bool) "off" true (Wal.fsync_policy_of_string "off" = Wal.Never);
  Alcotest.(check bool) "batch" true
    (match Wal.fsync_policy_of_string "batch" with Wal.Batch n -> n > 0 | _ -> false);
  Alcotest.(check bool) "batch:8" true (Wal.fsync_policy_of_string "Batch:8" = Wal.Batch 8);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (match Wal.fsync_policy_of_string s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "sometimes"; "batch:0"; "batch:x"; "" ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Wal.fsync_policy_to_string p ^ " roundtrips")
        true
        (Wal.fsync_policy_of_string (Wal.fsync_policy_to_string p) = p))
    [ Wal.Always; Wal.Never; Wal.Batch 64; Wal.Batch 7 ]

(* Batch and Never policies: a cleanly closed store recovers fully
   (close flushes), and even an abandoned store recovers fully under
   the process-crash model (writes reached the kernel). *)
let test_policies_recover () =
  List.iter
    (fun policy ->
      let name = Wal.fsync_policy_to_string policy in
      let dir = fresh_dir () in
      let d, eng, _ = open_stack ~policy dir in
      List.iter (fun k -> apply_via_engine eng k) (range 1 5);
      Durable.close d;
      let d2, eng2, recovery = open_stack ~policy dir in
      Alcotest.(check int) (name ^ ": recovered") 5 recovery.Durable.rec_replayed;
      Alcotest.(check string) (name ^ ": state")
        (fingerprint (reference (range 1 5)))
        (fingerprint (Engine.collection eng2));
      Durable.close d2;
      rm_rf dir)
    [ Wal.Batch 2; Wal.Never ]

(* Periodic compaction through the update path: snapshot_every=3 over
   7 updates must leave at most (7 mod 3) + a snapshot behind. *)
let test_snapshot_every () =
  let dir = fresh_dir () in
  let _d, eng, _ = open_stack ~snapshot_every:3 dir in
  List.iter (fun k -> apply_via_engine eng k) (range 1 7);
  (* Abandon (crash): the snapshot already covers 6 of the 7. *)
  let d2, eng2, recovery = open_stack dir in
  Alcotest.(check bool) "snapshot present" true
    (recovery.Durable.rec_snapshot <> None);
  Alcotest.(check int) "only the suffix replayed" 1
    recovery.Durable.rec_replayed;
  Alcotest.(check string) "state"
    (fingerprint (reference (range 1 7)))
    (fingerprint (Engine.collection eng2));
  Durable.close d2;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Op encoding round-trip under qcheck                                 *)

let gen_op =
  QCheck.Gen.(
    let str = string_size ~gen:(char_range '\000' '\255') (0 -- 12) in
    let pos = map Int64.of_int small_signed_int in
    let pairs = list_size (0 -- 4) (pair str str) in
    int_range 0 2 >>= fun kind ->
    str >>= fun doc ->
    str >>= fun start_attr ->
    str >>= fun end_attr ->
    str >>= fun ptype ->
    match kind with
    | 0 ->
        small_nat >>= fun pre ->
        pos >>= fun start_pos ->
        pos >>= fun end_pos ->
        return
          (Wal.Set_region
             { doc; start_attr; end_attr; ptype; pre; start_pos; end_pos })
    | 1 ->
        pos >>= fun from ->
        pos >>= fun by ->
        return (Wal.Shift { doc; start_attr; end_attr; ptype; from; by })
    | _ ->
        pairs >>= fun docs ->
        pairs >>= fun blobs -> return (Wal.Ingest { docs; blobs }))

let qcheck_wal_roundtrip =
  QCheck.Test.make ~name:"WAL append/replay round-trips arbitrary ops"
    ~count:60
    (QCheck.make QCheck.Gen.(list_size (0 -- 20) gen_op))
    (fun ops ->
      let dir = fresh_dir () in
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create ~next_lsn:1 path in
      List.iter (fun op -> ignore (Wal.append w op)) ops;
      Wal.close w;
      let r = Wal.replay path in
      rm_rf dir;
      r.Wal.r_torn = None
      && List.map snd r.Wal.r_ops = ops
      && List.map fst r.Wal.r_ops = List.mapi (fun i _ -> i + 1) ops)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wal"
    [
      ( "crash-recovery",
        [
          Alcotest.test_case "failpoint matrix: acked prefix recovered" `Quick
            test_crash_matrix;
          Alcotest.test_case "recovery then new updates then snapshot" `Quick
            test_continue_after_recovery;
          Alcotest.test_case "snapshot failpoints" `Quick test_snapshot_crashes;
          Alcotest.test_case "warm-catalogue updates recover" `Quick
            test_warm_updates_recover;
        ] );
      ( "corrupt-wal",
        [
          Alcotest.test_case "damage table" `Quick test_corrupt_wal_table;
          Alcotest.test_case "duplicate records filtered" `Quick
            test_duplicate_records_filtered;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "batched record roundtrip" `Quick
            test_ingest_record_roundtrip;
          Alcotest.test_case "batch recovery + compaction" `Quick
            test_ingest_recovery;
        ] );
      ( "policies",
        [
          Alcotest.test_case "fsync policy parsing" `Quick
            test_fsync_policy_parse;
          Alcotest.test_case "batch/never recover after clean close" `Quick
            test_policies_recover;
          Alcotest.test_case "periodic compaction (snapshot-every)" `Quick
            test_snapshot_every;
        ] );
      ( "encoding",
        [ QCheck_alcotest.to_alcotest qcheck_wal_roundtrip ] );
    ]
