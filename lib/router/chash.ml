type t = { points : (int64 * string) array; names : string list }

(* Points per shard: enough for smooth arcs, few enough for a small
   lookup table. *)
let vnodes = 160

(* The first 8 bytes of the MD5 as an unsigned ring position.  MD5 is
   in the stdlib, fast, and mixes well; nothing here needs collision
   resistance. *)
let point s = Bytes.get_int64_be (Bytes.unsafe_of_string (Digest.string s)) 0

let create names =
  if names = [] then invalid_arg "Chash.create: no shards";
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Chash.create: duplicate shard names";
  let count = List.length names in
  let points = Array.make (vnodes * count) (0L, "") in
  List.iteri
    (fun si name ->
      for v = 0 to vnodes - 1 do
        points.((si * vnodes) + v) <-
          (point (Printf.sprintf "%s#%d" name v), name)
      done)
    names;
  (* Ties between distinct shards' points are broken by name so the
     ring is a pure function of its inputs. *)
  Array.sort
    (fun (a, an) (b, bn) ->
      match Int64.unsigned_compare a b with
      | 0 -> String.compare an bn
      | c -> c)
    points;
  { points; names }

let shard t key =
  let h = point key in
  let n = Array.length t.points in
  (* First point [>= h], clockwise wraparound past the last one. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  snd t.points.(if !lo = n then 0 else !lo)

let shards t = t.names
