(** Regions: closed [\[start,end\]] ranges over a totally ordered
    64-bit position domain (paper §2).

    Positions may denote byte offsets into a disk image, token offsets
    into a text corpus, or (milli)seconds into a media stream; the
    algorithms only require a full order, which [int64] provides. *)

type pos = int64

type t = private {
  start_ : pos;
  end_ : pos;
}
(** Invariant: [start_ <= end_].  The region includes both endpoints. *)

(** [make start end_] is the region [\[start,end_\]].
    @raise Invalid_argument if [start > end_]. *)
val make : pos -> pos -> t

(** [make_int start end_] is [make] over plain integers, for
    convenience in tests and generators. *)
val make_int : int -> int -> t

(** [start_pos r] is the inclusive lower endpoint. *)
val start_pos : t -> pos

(** [end_pos r] is the inclusive upper endpoint. *)
val end_pos : t -> pos

(** [width r] is [end - start] (0 for a point region). *)
val width : t -> int64

(** [contains r1 r2] holds when [r2] lies entirely inside [r1]:
    [r1.start <= r2.start <= r2.end <= r1.end]. *)
val contains : t -> t -> bool


(** [overlaps r1 r2] holds when the regions share at least one
    position: [r1.start <= r2.end && r1.end >= r2.start].  Closed-
    interval semantics: touching endpoints do overlap, matching the
    paper's definition. *)
val overlaps : t -> t -> bool

(** [disjoint r1 r2] is [not (overlaps r1 r2)]. *)
val disjoint : t -> t -> bool

(** [precedes r1 r2] holds when [r1] ends strictly before [r2] starts. *)
val precedes : t -> t -> bool

(** [intersection r1 r2] is the common sub-region, if any. *)
val intersection : t -> t -> t option

(** [hull r1 r2] is the smallest region covering both. *)
val hull : t -> t -> t

(** [compare r1 r2] orders by [start], then by [end] {e descending}
    (wider first) — the clustering order of the region index (§4.3),
    chosen so that a containing region precedes its contained ones. *)
val compare : t -> t -> int

(** [equal r1 r2] is structural equality. *)
val equal : t -> t -> bool

(** [pp fmt r] prints ["[start,end]"]. *)
val pp : Format.formatter -> t -> unit

(** [to_string r] is [pp] rendered to a string. *)
val to_string : t -> string
