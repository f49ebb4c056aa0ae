module Codec = Standoff_util.Codec
module Failpoint = Standoff_util.Failpoint
module Metrics = Standoff_obs.Metrics

exception Corrupt of string

let m_appended =
  Metrics.counter "standoff_wal_appended_records_total"
    ~help:"Records appended to the write-ahead log"

let m_appended_bytes =
  Metrics.counter "standoff_wal_appended_bytes_total"
    ~help:"Bytes appended to the write-ahead log (frames included)"

let m_fsync_seconds =
  Metrics.histogram "standoff_wal_fsync_seconds"
    ~buckets:Metrics.duration_buckets
    ~help:"Wall-clock fsync latency on the write-ahead log"

let m_replayed =
  Metrics.counter "standoff_wal_replayed_records_total"
    ~help:"Records replayed from the write-ahead log at recovery"

let m_torn_tails =
  Metrics.counter "standoff_wal_torn_tails_total"
    ~help:"Replays that stopped early at a torn or checksum-failing tail"

(* ------------------------------------------------------------------ *)
(* File format                                                         *)

(* Header: 5 magic bytes + 1 version byte.  Then records, each framed
   as

     4 bytes  payload length   (little-endian)
     4 bytes  Fletcher-32 checksum of the payload (little-endian)
     n bytes  payload

   The payload is Codec-encoded: the record's LSN (varint) followed by
   the operation.  A crash can only ever truncate the file (appends are
   sequential), so replay stops — without error — at the first frame
   that is short or fails its checksum: the torn tail.  Anything wrong
   *before* the tail (bad magic, undecodable checksummed payload) is
   real corruption and raises {!Corrupt}. *)

let magic = "SOWAL"
let version = 1
let header_len = String.length magic + 1

(* A frame length past this is garbage from a corrupted length field,
   not a real record; treat it as a torn tail rather than attempting
   the allocation. *)
let max_record_bytes = 16 * 1024 * 1024

type op =
  | Set_region of {
      doc : string;
      start_attr : string;
      end_attr : string;
      ptype : string;
      pre : int;
      start_pos : int64;
      end_pos : int64;
    }
  | Shift of {
      doc : string;
      start_attr : string;
      end_attr : string;
      ptype : string;
      from : int64;
      by : int64;
    }
  | Ingest of {
      docs : (string * string) list;  (* name, Persist doc payload *)
      blobs : (string * string) list;  (* name, contents *)
    }

let encode_op w op =
  let open Codec.Writer in
  match op with
  | Set_region { doc; start_attr; end_attr; ptype; pre; start_pos; end_pos } ->
      byte w 1;
      string w doc;
      string w start_attr;
      string w end_attr;
      string w ptype;
      varint w pre;
      varint64 w start_pos;
      varint64 w end_pos
  | Shift { doc; start_attr; end_attr; ptype; from; by } ->
      byte w 2;
      string w doc;
      string w start_attr;
      string w end_attr;
      string w ptype;
      varint64 w from;
      varint64 w by
  | Ingest { docs; blobs } ->
      byte w 3;
      let pairs ps =
        varint w (List.length ps);
        List.iter
          (fun (name, payload) ->
            string w name;
            string w payload)
          ps
      in
      pairs docs;
      pairs blobs

let decode_op r =
  let open Codec.Reader in
  match byte r with
  | 1 ->
      let doc = string r in
      let start_attr = string r in
      let end_attr = string r in
      let ptype = string r in
      let pre = varint r in
      let start_pos = varint64 r in
      let end_pos = varint64 r in
      Set_region { doc; start_attr; end_attr; ptype; pre; start_pos; end_pos }
  | 2 ->
      let doc = string r in
      let start_attr = string r in
      let end_attr = string r in
      let ptype = string r in
      let from = varint64 r in
      let by = varint64 r in
      Shift { doc; start_attr; end_attr; ptype; from; by }
  | 3 ->
      let pairs () =
        let n = varint r in
        let rec go k acc =
          if k = 0 then List.rev acc
          else
            let name = string r in
            let payload = string r in
            go (k - 1) ((name, payload) :: acc)
        in
        go n []
      in
      let docs = pairs () in
      let blobs = pairs () in
      Ingest { docs; blobs }
  | b -> raise (Corrupt (Printf.sprintf "unknown WAL record tag %d" b))

let put_le32 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let get_le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let frame_of_payload payload =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  put_le32 b 0 n;
  put_le32 b 4 (Codec.fletcher32 payload);
  Bytes.blit_string payload 0 b 8 n;
  b

(* ------------------------------------------------------------------ *)
(* Fsync policies                                                      *)

type fsync_policy =
  | Always
  | Batch of int
  | Never

let default_batch = 64

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Always
  | "never" | "off" -> Never
  | "batch" -> Batch default_batch
  | s when String.length s > 6 && String.sub s 0 6 = "batch:" -> (
      let n = String.sub s 6 (String.length s - 6) in
      match int_of_string_opt n with
      | Some n when n >= 1 -> Batch n
      | _ ->
          invalid_arg (Printf.sprintf "bad fsync batch size %S" n))
  | s ->
      invalid_arg
        (Printf.sprintf
           "unknown fsync policy %S (expected always | batch[:N] | never)" s)

let fsync_policy_to_string = function
  | Always -> "always"
  | Batch n when n = default_batch -> "batch"
  | Batch n -> Printf.sprintf "batch:%d" n
  | Never -> "never"

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

type t = {
  path : string;
  fd : Unix.file_descr;
  policy : fsync_policy;
  lock : Mutex.t;
  mutable next_lsn : int;
  mutable unsynced : int;
  mutable closed : bool;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let write_all fd b off len =
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd b (off + !written) (len - !written)
  done

let do_fsync t =
  Metrics.time m_fsync_seconds (fun () -> Unix.fsync t.fd);
  t.unsynced <- 0

let write_header fd =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set b (String.length magic) (Char.chr version);
  write_all fd b 0 header_len

let create ?(policy = Always) ~next_lsn path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  (try
     write_header fd;
     if policy <> Never then Unix.fsync fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    path;
    fd;
    policy;
    lock = Mutex.create ();
    next_lsn = max 1 next_lsn;
    unsynced = 0;
    closed = false;
  }

let open_append ?(policy = Always) ~valid_bytes ~next_lsn path =
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  (try
     if valid_bytes < header_len then begin
       (* Fresh file, or a crash landed inside the header write: start
          over.  Nothing valid can precede a complete header. *)
       Unix.ftruncate fd 0;
       write_header fd
     end
     else
       (* Drop the torn tail (replay already refused to read past
          [valid_bytes]); appending after garbage would hide every
          later record from the next replay. *)
       Unix.ftruncate fd valid_bytes;
     ignore (Unix.lseek fd 0 Unix.SEEK_END);
     if policy <> Never then Unix.fsync fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    path;
    fd;
    policy;
    lock = Mutex.create ();
    next_lsn = max 1 next_lsn;
    unsynced = 0;
    closed = false;
  }

let append t op =
  locked t (fun () ->
      if t.closed then invalid_arg "Wal.append: log is closed";
      let lsn = t.next_lsn in
      let w = Codec.Writer.create () in
      Codec.Writer.varint w lsn;
      encode_op w op;
      let frame = frame_of_payload (Codec.Writer.contents w) in
      let len = Bytes.length frame in
      if Failpoint.would_fire "wal.mid_append" then begin
        (* Make the torn state real: half the frame reaches the file,
           then the injected crash fires. *)
        let half = len / 2 in
        write_all t.fd frame 0 half;
        Failpoint.hit "wal.mid_append";
        write_all t.fd frame half (len - half)
      end
      else begin
        write_all t.fd frame 0 len;
        Failpoint.hit "wal.mid_append"
      end;
      t.unsynced <- t.unsynced + 1;
      Failpoint.hit "wal.before_fsync";
      (match t.policy with
      | Always -> do_fsync t
      | Batch n -> if t.unsynced >= n then do_fsync t
      | Never -> ());
      Failpoint.hit "wal.after_append";
      t.next_lsn <- lsn + 1;
      Metrics.incr m_appended;
      Metrics.add m_appended_bytes len;
      lsn)

let flush t =
  locked t (fun () ->
      if (not t.closed) && t.unsynced > 0 && t.policy <> Never then do_fsync t)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        (try if t.unsynced > 0 && t.policy <> Never then do_fsync t
         with Unix.Unix_error _ -> ());
        t.closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)

let next_lsn t = locked t (fun () -> t.next_lsn)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replayed = {
  r_ops : (int * op) list;
  r_valid_bytes : int;
  r_torn : string option;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replay path =
  if not (Sys.file_exists path) then
    { r_ops = []; r_valid_bytes = 0; r_torn = None }
  else begin
    let s = read_file path in
    let n = String.length s in
    if n = 0 then { r_ops = []; r_valid_bytes = 0; r_torn = None }
    else if n < header_len then
      (* The crash landed inside the very first write: no record can
         have been acknowledged, so this is an (empty) torn tail. *)
      { r_ops = []; r_valid_bytes = 0; r_torn = Some "torn header" }
    else if String.sub s 0 (String.length magic) <> magic then
      raise (Corrupt "bad WAL magic")
    else if Char.code s.[String.length magic] <> version then
      raise
        (Corrupt
           (Printf.sprintf "unsupported WAL version %d"
              (Char.code s.[String.length magic])))
    else begin
      let ops = ref [] in
      let count = ref 0 in
      let off = ref header_len in
      let torn = ref None in
      let stop reason = torn := Some reason in
      while !torn = None && !off < n do
        if n - !off < 8 then stop "short record header"
        else begin
          let len = get_le32 s !off in
          let sum = get_le32 s (!off + 4) in
          if len > max_record_bytes then stop "implausible record length"
          else if len > n - (!off + 8) then stop "short record payload"
          else begin
            let payload = String.sub s (!off + 8) len in
            if Codec.fletcher32 payload <> sum then stop "checksum mismatch"
            else begin
              let r = Codec.Reader.create payload in
              (try
                 let lsn = Codec.Reader.varint r in
                 let op = decode_op r in
                 if not (Codec.Reader.at_end r) then
                   raise (Corrupt "trailing bytes in WAL record");
                 if lsn < 1 then
                   raise (Corrupt (Printf.sprintf "bad WAL record lsn %d" lsn));
                 ops := (lsn, op) :: !ops;
                 incr count
               with Codec.Reader.Corrupt msg ->
                 (* The checksum held but the payload does not decode:
                    that is not a torn write, it is a format problem. *)
                 raise (Corrupt ("undecodable WAL record: " ^ msg)));
              off := !off + 8 + len
            end
          end
        end
      done;
      Metrics.add m_replayed !count;
      if !torn <> None then Metrics.incr m_torn_tails;
      { r_ops = List.rev !ops; r_valid_bytes = !off; r_torn = !torn }
    end
  end
