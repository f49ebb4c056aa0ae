(* The three workloads: what the server is started with, which texts
   the clients send, and in what seeded order.  The served run and the
   traced run both draw their requests from here, so the traced run
   replays a prefix of exactly the sequence the served run sends. *)

module Prng = Standoff_util.Prng
module Queries = Standoff_xmark.Queries

type kind = Scan_large | Serve_hot | Update_mix

type t = {
  kind : kind;
  name : string;
  scale : float;
  server_args : string list;
      (** flags beyond address, body cap and data directory *)
  readers : int;  (** read connections, one client thread each *)
  warmup_s : float;
  writer_rate : float option;  (** open-loop updates per second *)
  cache : Standoff_xquery.Engine.cache_mode;  (** the server's, mirrored in-process *)
}

(* The server's defaults, the result cache among them off: a cached
   reply would skip the joins this workload is about. *)
let scan_large =
  {
    kind = Scan_large;
    name = "scan-large";
    scale = 0.2;
    server_args = [ "--cache"; "off" ];
    readers = 1;
    warmup_s = 3.0;
    writer_rate = None;
    cache = Standoff_xquery.Engine.Cache_off;
  }

(* --workers 2: with the default (half the domain budget, 1 on two
   cores) one worker stays pinned to a keep-alive connection for its
   whole life and two clients are served in alternating bursts. *)
let serve_hot =
  {
    kind = Serve_hot;
    name = "serve-hot";
    scale = 0.1;
    server_args = [ "--cache"; "result"; "--workers"; "2" ];
    readers = 2;
    (* Long enough for the 1,024-entry result cache to reach its
       steady hit rate (about 2,000 distinct person texts a second). *)
    warmup_s = 8.0;
    writer_rate = None;
    cache = Standoff_xquery.Engine.Cache_result;
  }

(* 5 updates/s: every update makes the next reader rebuild the region
   index and DataGuide, and at 20/s the writer fell a second behind
   within 15 s while reads dropped to a few per second. *)
let update_mix =
  {
    kind = Update_mix;
    name = "update-mix";
    scale = 0.05;
    server_args =
      [
        "--fsync"; "always"; "--snapshot-every"; "0"; "--cache"; "result";
        "--workers"; "2";
      ];
    readers = 1;
    warmup_s = 3.0;
    writer_rate = Some 5.0;
    cache = Standoff_xquery.Engine.Cache_result;
  }

let all = [ scan_large; serve_hot; update_mix ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The smoke test's sizes: every path, oracle and restart exercised in
   seconds. *)
let smoke w =
  let scale =
    match w.kind with Scan_large -> 0.005 | Serve_hot -> 0.01 | Update_mix -> 0.005
  in
  { w with scale; warmup_s = 0.5 }

(* ------------------------------------------------------------------ *)
(* Texts                                                               *)

let doc = Input.doc_name

let person k =
  Printf.sprintf
    "doc(\"%s\")//site/select-narrow::people/select-narrow::person[@id = \
     \"person%d\"]"
    doc k

(* Constructs a node, so the server runs it under the exclusive lock
   and never caches its result. *)
let auction k =
  Printf.sprintf
    "for $b in doc(\"%s\")//site/select-narrow::open_auctions\n\
    \    /select-narrow::open_auction[@id = \"open_auction%d\"]\n\
     return <increase>{$b/select-narrow::bidder[1]/select-narrow::increase}</increase>"
    doc k

(* Updates move increase extents, which only the auction queries
   return: every other reply must stay the same under updates. *)
let sees_updates text = String.starts_with ~prefix:"for $b" text

(* The Figure-6 stand-off forms plus three longer join shapes.  [wide]
   and [reject] are counted rather than returned: their answers run to
   megabytes, and serializing them would drown the joins this workload
   is about. *)
let scan_texts =
  List.map (fun q -> (q.Queries.id, q.Queries.standoff doc)) Queries.all
  @ [
      ( "chain4",
        Printf.sprintf
          "for $a in doc(\"%s\")//site/select-narrow::open_auctions\n\
          \    /select-narrow::open_auction\n\
           return count($a/select-narrow::bidder/select-narrow::increase)"
          doc );
      ( "wide",
        Printf.sprintf
          "count(doc(\"%s\")//site/select-narrow::open_auctions\n\
          \    /select-narrow::open_auction/select-narrow::bidder\n\
          \    /select-wide::open_auction)"
          doc );
      ( "reject",
        Printf.sprintf
          "count(doc(\"%s\")//site/select-narrow::regions\n\
          \    /select-narrow::item[1]/reject-narrow::item)"
          doc );
    ]

(* ------------------------------------------------------------------ *)
(* Seeded request streams                                              *)

(* Zipf (s = 1) over ranks 0..n-1 by inverse CDF; rank k is id k, so
   the hottest ids are the smallest. *)
let zipf_cdf n =
  let c = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    c.(k) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let zipf_draw cdf rng =
  let u = Prng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Independent streams: one per read connection, then the writer's.
   The traced run replays the same ones. *)
let streams ~seed n =
  let root = Prng.create (Int64.of_int (seed * 8)) in
  Array.init n (fun _ -> Prng.split root)

(* [reader w counts rng] is the read stream of one connection. *)
let reader w (counts : Standoff_xmark.Gen.counts) rng =
  match w.kind with
  | Scan_large ->
      let texts = Array.of_list (List.map snd scan_texts) in
      let i = ref (-1) in
      fun () ->
        incr i;
        texts.(!i mod Array.length texts)
  | Serve_hot ->
      let cdf = zipf_cdf counts.persons in
      fun () ->
        if Prng.int rng 10 = 0 then auction (Prng.int rng counts.open_auctions)
        else person (zipf_draw cdf rng)
  | Update_mix ->
      let cdf = zipf_cdf counts.persons in
      fun () ->
        if Prng.bool rng then auction (Prng.int rng counts.open_auctions)
        else person (zipf_draw cdf rng)

(* The writer toggles the end of a uniformly chosen increase annotation
   between its original end e and e - 1; [writer] returns the next
   update as (pre, start, end). *)
let writer increases rng =
  let current = Array.map (fun (_, _, e) -> e) increases in
  fun () ->
    let i = Prng.int rng (Array.length increases) in
    let pre, s, e = increases.(i) in
    let e' = if current.(i) = e then Int64.pred e else e in
    current.(i) <- e';
    (pre, s, e')

let update_target (pre, s, e) =
  Printf.sprintf "/update?doc=%s&pre=%d&start=%Ld&end=%Ld" doc pre s e
