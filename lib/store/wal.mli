(** Write-ahead log for annotation updates.

    Records are length-prefixed and Fletcher-32 checksummed; a crash
    can only truncate the file, so {!replay} stops cleanly at the
    first short or checksum-failing frame (the torn tail) and returns
    everything before it.  Corruption that cannot be explained by a
    torn append — bad magic, an undecodable checksummed payload —
    raises {!Corrupt} instead of being silently skipped. *)

exception Corrupt of string

(** A logged update, self-contained: the attribute names and position
    type travel with the record so replay does not depend on server
    configuration at recovery time. *)
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
      docs : (string * string) list;
          (** (name, {!Standoff_store.Persist.doc_to_string} payload) *)
      blobs : (string * string) list;  (** (name, raw contents) *)
    }
      (** A whole batch of new documents and blobs as one record — the
          bulk-load path logs (and fsyncs) once per batch, not once
          per document. *)


type fsync_policy =
  | Always  (** fsync after every append: acked implies durable *)
  | Batch of int  (** fsync every n appends: bounded loss window *)
  | Never  (** leave it to the OS: fastest, weakest *)

val fsync_policy_of_string : string -> fsync_policy
(** Parses ["always"], ["batch"], ["batch:N"], ["never"]/["off"].
    @raise Invalid_argument on anything else. *)

val fsync_policy_to_string : fsync_policy -> string

type t
(** An open log.  Appends are serialised internally; safe to call from
    several domains. *)

val create : ?policy:fsync_policy -> next_lsn:int -> string -> t
(** [create ~next_lsn path] truncates [path] and starts a fresh log
    whose first record will carry [next_lsn]. *)

val open_append : ?policy:fsync_policy -> valid_bytes:int -> next_lsn:int -> string -> t
(** [open_append ~valid_bytes ~next_lsn path] reopens an existing log
    for appending, first truncating it to [valid_bytes] (as reported
    by {!replay}) so a torn tail never precedes new records. *)

val append : t -> op -> int
(** Appends one record and returns its LSN.  When the policy is
    [Always] the record is on disk when this returns. *)

val flush : t -> unit
(** Force an fsync of any unsynced appends (no-op under [Never]). *)

val close : t -> unit
(** Flushes (best-effort) and closes the file descriptor. *)

val next_lsn : t -> int

type replayed = {
  r_ops : (int * op) list;  (** (lsn, op) in file order *)
  r_valid_bytes : int;  (** prefix length containing intact records *)
  r_torn : string option;  (** why replay stopped early, if it did *)
}

val replay : string -> replayed
(** Reads every intact record from the file at [path].  A missing or
    empty file replays as zero records.  @raise Corrupt on damage that
    a torn append cannot explain. *)
