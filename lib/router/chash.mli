(** Consistent hashing of document names onto shards.

    The classic ring: every shard contributes [vnodes] points (hashes
    of ["name#i"]), a key maps to the first point clockwise from its
    own hash.  Two properties matter to the router:

    - {b determinism}: the ring depends only on the shard names and
      the vnode count, so every router process — including one
      restarted mid-flight — computes the same placement;
    - {b stability}: adding or removing one shard of [n] moves about
      [1/n] of the keys (the arcs the new shard's points capture), not
      a wholesale reshuffle — so growing a deployment re-ingests a
      fraction of the corpus, not all of it.

    Hashing is MD5 ([Digest.string], first 8 bytes as an unsigned
     64-bit point) — no cryptographic claim, just a well-mixed stable
    hash available in the stdlib. *)

type t

(** [create names] builds the ring, {!vnodes} points per shard.
    @raise Invalid_argument on an empty or duplicate-carrying name
    list. *)
val create : string list -> t

(** [shard t key] is the shard that owns [key]. *)
val shard : t -> string -> string

(** The shard names the ring was built from, in the given order. *)
val shards : t -> string list

(** Points per shard (160): more points give smoother arcs, fewer a
    smaller lookup table. *)
val vnodes : int
