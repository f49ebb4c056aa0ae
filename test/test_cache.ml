(* Tests for the engine-wide caching layer: the Standoff_cache.Lru
   primitive (recency order, size accounting, generation staleness,
   domain safety) and its two engine wirings (prepared-plan cache,
   result cache with update-driven invalidation). *)

module Lru = Standoff_cache.Lru
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Catalog = Standoff.Catalog
module Update = Standoff.Update
module Region = Standoff_interval.Region
module Engine = Standoff_xquery.Engine

let mk ?max_entries ?max_bytes ?(name = "test") () =
  Lru.create ?max_entries ?max_bytes ~name ~weight:String.length ()

(* ---------------- LRU primitive ---------------- *)

let test_eviction_order () =
  let c = mk ~max_entries:3 () in
  Lru.add c 1 "one";
  Lru.add c 2 "two";
  Lru.add c 3 "three";
  (* Touch 1 so it becomes MRU; inserting 4 must evict 2 (the LRU). *)
  Alcotest.(check (option string)) "touch 1" (Some "one") (Lru.find c 1);
  Lru.add c 4 "four";
  Alcotest.(check (option string)) "2 evicted" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "one") (Lru.find c 1);
  Alcotest.(check (option string)) "3 kept" (Some "three") (Lru.find c 3);
  Alcotest.(check (option string)) "4 kept" (Some "four") (Lru.find c 4);
  Alcotest.(check int) "length" 3 (Lru.length c);
  Alcotest.(check int) "one eviction" 1 (Lru.stats c).Lru.evictions

let test_replace_same_key () =
  let c = mk ~max_entries:2 () in
  Lru.add c 1 "a";
  Lru.add c 1 "bb";
  Alcotest.(check (option string)) "replaced" (Some "bb") (Lru.find c 1);
  Alcotest.(check int) "no duplicate entry" 1 (Lru.length c);
  (* Replacement is not an eviction. *)
  Alcotest.(check int) "no eviction" 0 (Lru.stats c).Lru.evictions

let test_size_accounting () =
  let c = mk ~max_bytes:10 () in
  Lru.add c 1 "aaaa";
  (* weight 4 *)
  Lru.add c 2 "bbbb";
  Alcotest.(check int) "bytes" 8 (Lru.stats c).Lru.bytes;
  (* 4 more bytes exceed the budget: the LRU entry (1) must go. *)
  Lru.add c 3 "cccc";
  Alcotest.(check (option string)) "1 evicted" None (Lru.find c 1);
  Alcotest.(check int) "bytes after eviction" 8 (Lru.stats c).Lru.bytes;
  (* A value over the whole budget is not admitted (and evicts
     nothing). *)
  let before = Lru.stats c in
  Lru.add c 9 (String.make 64 'x');
  Alcotest.(check (option string)) "oversized skipped" None (Lru.find c 9);
  Alcotest.(check int) "no collateral eviction" before.Lru.evictions
    (Lru.stats c).Lru.evictions;
  Alcotest.(check (option string)) "2 survives" (Some "bbbb") (Lru.find c 2)

let test_remove_clear () =
  let c = mk () in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  Lru.remove c 1;
  Alcotest.(check (option string)) "removed" None (Lru.find c 1);
  Alcotest.(check int) "length" 1 (Lru.length c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "bytes zero" 0 (Lru.stats c).Lru.bytes

let test_generation_staleness () =
  let c = mk () in
  Lru.add c ~generation:7 1 "v@7";
  (* Same generation: served. *)
  Alcotest.(check (option string))
    "exact generation hit" (Some "v@7")
    (Lru.find c ~generation:7 1);
  (* Any other generation: the entry is stale — dropped, counted as a
     miss and an eviction, and gone for good. *)
  Alcotest.(check (option string))
    "newer generation misses" None
    (Lru.find c ~generation:8 1);
  Alcotest.(check (option string))
    "entry dropped" None
    (Lru.find c ~generation:7 1);
  let s = Lru.stats c in
  Alcotest.(check int) "stale drop counts as eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Lru.misses

let test_concurrent_hits () =
  let c = mk ~max_entries:64 () in
  for i = 0 to 7 do
    Lru.add c i (string_of_int i)
  done;
  let per_domain = 1000 in
  let worker d () =
    for i = 1 to per_domain do
      let k = (d + i) mod 8 in
      match Lru.find c k with
      | Some v -> assert (v = string_of_int k)
      | None -> assert false
    done
  in
  let domains = List.init 8 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let s = Lru.stats c in
  Alcotest.(check int) "every find was a hit" (8 * per_domain) s.Lru.hits;
  Alcotest.(check int) "no misses" 0 s.Lru.misses;
  Alcotest.(check int) "all entries intact" 8 s.Lru.entries

(* ---------------- catalogue generations ---------------- *)

let region_doc () =
  Doc.parse ~name:"upd.xml"
    "<t><p start=\"0\" end=\"10\"/><c start=\"2\" end=\"8\"/></t>"

let test_catalog_generation_bumps () =
  let cat = Catalog.create () in
  let d = region_doc () in
  Alcotest.(check int) "initial generation" 0 (Catalog.generation cat "upd.xml");
  let v0 = Catalog.version cat in
  let pre_c = (Doc.elements_named d "c").(0) in
  Update.set_region cat Config.default d ~pre:pre_c (Region.make_int 3 9);
  Alcotest.(check int) "set_region bumps generation" 1
    (Catalog.generation cat "upd.xml");
  Alcotest.(check bool) "version bumped" true (Catalog.version cat > v0);
  let moved = Update.shift_annotations cat Config.default d ~from:0L ~by:5L in
  Alcotest.(check bool) "some annotations moved" true (moved > 0);
  Alcotest.(check int) "shift bumps generation" 2
    (Catalog.generation cat "upd.xml");
  (* Unknown documents sit at generation 0, not an error. *)
  Alcotest.(check int) "unknown doc" 0 (Catalog.generation cat "nope.xml")

(* ---------------- engine wiring ---------------- *)

let engine_with_region_doc cache =
  let coll = Collection.create () in
  let d = region_doc () in
  ignore (Collection.add coll d);
  (Engine.create ~jobs:1 ~cache coll, d)

let narrow_count = "count(doc(\"upd.xml\")//p/select-narrow::c)"

let test_stale_read_regression () =
  (* The bug this PR fixes at the design level: query, cache the
     result, update an annotation region, repeat the query.  The repeat
     must see the post-update answer, never the cached pre-update
     one. *)
  let engine, d = engine_with_region_doc Engine.Cache_result in
  let r1 = (Engine.run engine narrow_count).Engine.serialized in
  Alcotest.(check string) "before update: c inside p" "1" (String.trim r1);
  (* Make sure the repeat actually comes from the cache... *)
  let hits0 = (Engine.result_cache_stats engine).Lru.hits in
  let r1' = (Engine.run engine narrow_count).Engine.serialized in
  Alcotest.(check string) "repeat identical" r1 r1';
  Alcotest.(check bool) "repeat was a cache hit" true
    ((Engine.result_cache_stats engine).Lru.hits > hits0);
  (* ...then invalidate by moving c outside p. *)
  let pre_c = (Doc.elements_named d "c").(0) in
  Update.set_region (Engine.catalog engine) Config.default d ~pre:pre_c
    (Region.make_int 50 60);
  let r2 = (Engine.run engine narrow_count).Engine.serialized in
  Alcotest.(check string) "after update: post-update answer" "0"
    (String.trim r2)

let test_plan_cache_hits () =
  let engine, _ = engine_with_region_doc Engine.Cache_plan in
  ignore (Engine.run engine narrow_count);
  let s0 = Engine.plan_cache_stats engine in
  ignore (Engine.run engine narrow_count);
  let s1 = Engine.plan_cache_stats engine in
  Alcotest.(check bool) "repeat run reuses the prepared plan" true
    (s1.Lru.hits > s0.Lru.hits);
  (* Cache_plan alone never consults the result cache. *)
  let rs = Engine.result_cache_stats engine in
  Alcotest.(check int) "result cache untouched" 0 (rs.Lru.hits + rs.Lru.misses)

(* Regression: the plan-cache key must separate dataguide-on plans
   from dataguide-off plans.  Before the flag joined the key, a
   guide-off request could be served a cached guide-on plan (wrong
   operators, just not wrong bytes) — and this check would see a hit
   where it demands a miss. *)
let test_plan_cache_dataguide_key () =
  let engine, _ = engine_with_region_doc Engine.Cache_plan in
  let q = narrow_count in
  ignore (Engine.prepare engine ~dataguide:true q);
  let s0 = Engine.plan_cache_stats engine in
  (* Same text, other dataguide flag: must miss and prepare afresh. *)
  ignore (Engine.prepare engine ~dataguide:false q);
  let s1 = Engine.plan_cache_stats engine in
  Alcotest.(check int) "flipped flag misses" (s0.Lru.misses + 1) s1.Lru.misses;
  Alcotest.(check int) "flipped flag never hits" s0.Lru.hits s1.Lru.hits;
  (* Each flag value keeps its own entry: repeats on both sides hit. *)
  ignore (Engine.prepare engine ~dataguide:true q);
  ignore (Engine.prepare engine ~dataguide:false q);
  let s2 = Engine.plan_cache_stats engine in
  Alcotest.(check int) "both repeats hit" (s1.Lru.hits + 2) s2.Lru.hits;
  Alcotest.(check int) "no further misses" s1.Lru.misses s2.Lru.misses

let test_result_cache_byte_identical () =
  let engine, _ = engine_with_region_doc Engine.Cache_result in
  let q = "doc(\"upd.xml\")//p/select-narrow::c" in
  let r1 = Engine.run engine q in
  let hits0 = (Engine.result_cache_stats engine).Lru.hits in
  let r2 = Engine.run engine q in
  Alcotest.(check bool) "second run hit" true
    ((Engine.result_cache_stats engine).Lru.hits > hits0);
  Alcotest.(check string) "byte-identical serialization"
    r1.Engine.serialized r2.Engine.serialized;
  Alcotest.(check int) "same item count" (List.length r1.Engine.items)
    (List.length r2.Engine.items)

(* The result key names the document set by its count (the collection
   is append-only), so a document registered straight through
   [Collection.add] — which, unlike [Engine.ingest], bumps no catalogue
   version — must still turn the next identical run into a miss. *)
let test_result_cache_sees_added_document () =
  let engine, _ = engine_with_region_doc Engine.Cache_result in
  let stats () = Engine.result_cache_stats engine in
  ignore (Engine.run engine narrow_count);
  ignore (Engine.run engine narrow_count);
  let s0 = stats () in
  ignore
    (Collection.add (Engine.collection engine)
       (Doc.parse ~name:"other.xml" "<t/>"));
  ignore (Engine.run engine narrow_count);
  let s1 = stats () in
  Alcotest.(check int) "run after the add misses" (s0.Lru.misses + 1)
    s1.Lru.misses;
  Alcotest.(check int) "and does not hit" s0.Lru.hits s1.Lru.hits;
  ignore (Engine.run engine narrow_count);
  Alcotest.(check int) "its repeat hits" (s1.Lru.hits + 1) (stats ()).Lru.hits

let test_cache_off_never_hits () =
  let engine, _ = engine_with_region_doc Engine.Cache_off in
  ignore (Engine.run engine narrow_count);
  ignore (Engine.run engine narrow_count);
  let ps = Engine.plan_cache_stats engine in
  let rs = Engine.result_cache_stats engine in
  Alcotest.(check int) "plan cache idle" 0 (ps.Lru.hits + ps.Lru.misses);
  Alcotest.(check int) "result cache idle" 0 (rs.Lru.hits + rs.Lru.misses)

let test_cache_mode_strings () =
  List.iter
    (fun (s, m) ->
      Alcotest.(check string)
        (Printf.sprintf "parse %S" s)
        (Engine.Options.cache_to_string m)
        (Engine.Options.cache_to_string (Engine.Options.cache_of_string s)))
    [
      ("off", Engine.Cache_off);
      ("none", Engine.Cache_off);
      ("plan", Engine.Cache_plan);
      ("result", Engine.Cache_result);
      ("on", Engine.Cache_result);
    ];
  match Engine.Options.cache_of_string "bogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted bogus cache mode"

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_eviction_order;
          Alcotest.test_case "replace same key" `Quick test_replace_same_key;
          Alcotest.test_case "size accounting" `Quick test_size_accounting;
          Alcotest.test_case "remove and clear" `Quick test_remove_clear;
          Alcotest.test_case "generation staleness" `Quick
            test_generation_staleness;
          Alcotest.test_case "concurrent hits from 8 domains" `Quick
            test_concurrent_hits;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "updates bump generations" `Quick
            test_catalog_generation_bumps;
        ] );
      ( "engine",
        [
          Alcotest.test_case "stale read regression (query-update-query)"
            `Quick test_stale_read_regression;
          Alcotest.test_case "plan cache hits" `Quick test_plan_cache_hits;
          Alcotest.test_case "plan cache keys on the dataguide flag" `Quick
            test_plan_cache_dataguide_key;
          Alcotest.test_case "result cache byte-identical" `Quick
            test_result_cache_byte_identical;
          Alcotest.test_case "added document misses" `Quick
            test_result_cache_sees_added_document;
          Alcotest.test_case "cache off never consults" `Quick
            test_cache_off_never_hits;
          Alcotest.test_case "cache mode strings" `Quick
            test_cache_mode_strings;
        ] );
    ]
