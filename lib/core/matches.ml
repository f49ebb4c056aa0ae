type t = {
  mutable len : int;
  mutable iters : int array;
  mutable ctxs : int array;
  mutable cands : int array;
  mutable ranks : int array;
}

let create ~capacity =
  let col () = Array.make (max 0 capacity) 0 in
  { len = 0; iters = col (); ctxs = col (); cands = col (); ranks = col () }

let grow t =
  let cap = max 64 (2 * t.len) in
  (* Doubling from the caller's estimate. *)
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.iters <- extend t.iters;
  t.ctxs <- extend t.ctxs;
  t.cands <- extend t.cands;
  t.ranks <- extend t.ranks

let push t ~iter ~ctx ~cand ~rank =
  if t.len = Array.length t.iters then grow t;
  let k = t.len in
  Array.unsafe_set t.iters k iter;
  Array.unsafe_set t.ctxs k ctx;
  Array.unsafe_set t.cands k cand;
  Array.unsafe_set t.ranks k rank;
  t.len <- k + 1

let length t = t.len
