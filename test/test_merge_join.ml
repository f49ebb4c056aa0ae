(* White-box tests of the loop-lifted StandOff MergeJoin (Listing 1):
   the Figure 4 execution trace, active-list maintenance, the pending
   list of the overlap sweep, and deadline handling.

   Note on the trace: as discussed in the module documentation of
   [Merge_join_ll], the printed pseudo-code's cross-iteration skip test
   is unsound (it would lose results for candidates contained only in
   the skipped context item), so this implementation skips/replaces
   within one iteration only.  On the Figure 4 input it therefore adds
   c3 (retiring same-iteration c1) where the paper's trace skips c3 —
   the final result set is identical: (iter 1, r1) and (iter 1, r4). *)

module Doc = Standoff_store.Doc
module Timing = Standoff_util.Timing
module Config = Standoff.Config
module Annots = Standoff.Annots
module MJ = Standoff.Merge_join_ll
module Matches = Standoff.Matches
module Active_set = Standoff.Active_set
module Region_index = Standoff.Region_index
module Collection = Standoff_store.Collection
module Engine = Standoff_xquery.Engine

(* The (iteration, candidate) column pairs of a sweep's matches. *)
let match_pairs (m : Matches.t) =
  List.init m.len (fun k -> (m.iters.(k), m.cands.(k)))

(* The Figure 4 input: contexts c1..c4 with iterations 1,2,1,1 and
   candidates r1..r4, realised as a stand-off document so that node
   ids are genuine pre ranks (c1=2, c2=3, c3=4, c4=5, r1=6 .. r4=9). *)
let figure4_doc =
  "<t>\
   <c1 start=\"0\" end=\"15\"/>\
   <c2 start=\"12\" end=\"35\"/>\
   <c3 start=\"20\" end=\"30\"/>\
   <c4 start=\"55\" end=\"80\"/>\
   <r1 start=\"5\" end=\"10\"/>\
   <r2 start=\"22\" end=\"45\"/>\
   <r3 start=\"40\" end=\"60\"/>\
   <r4 start=\"65\" end=\"70\"/>\
   </t>"

let c1 = 2
let c2 = 3
let c3 = 4
let c4 = 5
let r1 = 6
let r2 = 7
let r3 = 8
let r4 = 9

let figure4_setup () =
  let d = Doc.parse ~name:"figure4" figure4_doc in
  let annots = Annots.extract Config.default d in
  let context =
    MJ.context_of_annotations annots ~iters:[| 1; 2; 1; 1 |]
      ~pres:[| c1; c2; c3; c4 |]
  in
  let cands = Annots.candidate_index_scan annots ~candidates:(Some [| r1; r2; r3; r4 |]) in
  (annots, context, cands)

let event_to_string = function
  | MJ.Add_active { iter; ctx } -> Printf.sprintf "add(%d,c%d)" iter (ctx - 1)
  | MJ.Skip_covered { iter; ctx } -> Printf.sprintf "skip(%d,c%d)" iter (ctx - 1)
  | MJ.Replace_active { iter; removed; by } ->
      Printf.sprintf "replace(%d,c%d->c%d)" iter (removed - 1) (by - 1)
  | MJ.Trim_active { iter; ctx } -> Printf.sprintf "trim(%d,c%d)" iter (ctx - 1)
  | MJ.Emit { iter; ctx; cand } ->
      Printf.sprintf "emit(%d,c%d,r%d)" iter (ctx - 1) (cand - 5)
  | MJ.Skip_candidates { from_row; to_row } ->
      Printf.sprintf "skipcand(%d->%d)" from_row to_row

let test_figure4_context_sorted () =
  let _, context, _ = figure4_setup () in
  Alcotest.(check int) "four region rows" 4 (MJ.context_row_count context);
  Alcotest.(check (list int64)) "sorted on start" [ 0L; 12L; 20L; 55L ]
    (Region_index.positions_to_list context.MJ.starts)

let test_figure4_trace () =
  let _, context, cands = figure4_setup () in
  let events = ref [] in
  let matches =
    MJ.select_narrow
      ~trace:(fun e -> events := e :: !events)
      ~single_region:true context cands
  in
  Alcotest.(check (list string))
    "execution trace"
    [
      "add(1,c1)";        (* c1 activated for r1 *)
      "emit(1,c1,r1)";    (* r1 contained in c1 *)
      "add(2,c2)";        (* c2 activated (iteration 2) *)
      "replace(1,c1->c3)";(* c3 extends past c1 within iteration 1 *)
      "add(1,c3)";
      "trim(1,c3)";       (* r3 starts past both ends *)
      "trim(2,c2)";
      "skipcand(2->3)";   (* r3 falls in the gap before c4 *)
      "add(1,c4)";
      "emit(1,c4,r4)";    (* r4 contained in c4 *)
    ]
    (List.rev_map event_to_string !events);
  Alcotest.(check (list (pair int int)))
    "paper's result: (iter1,r1) and (iter1,r4)"
    [ (1, r1); (1, r4) ]
    (match_pairs matches)

let test_figure4_counterexample_candidate () =
  (* The candidate [22,28] is contained in c3 = [20,30] (iteration 1)
     but in no other iteration-1 context; a cross-iteration skip of c3
     would lose this result. *)
  let d =
    Doc.parse ~name:"cx"
      "<t>\
       <c1 start=\"0\" end=\"15\"/>\
       <c2 start=\"12\" end=\"35\"/>\
       <c3 start=\"20\" end=\"30\"/>\
       <x start=\"22\" end=\"28\"/>\
       </t>"
  in
  let annots = Annots.extract Config.default d in
  let context =
    MJ.context_of_annotations annots ~iters:[| 1; 2; 1 |] ~pres:[| 2; 3; 4 |]
  in
  let cands = Annots.candidate_index_scan annots ~candidates:(Some [| 5 |]) in
  let matches = MJ.select_narrow ~single_region:true context cands in
  let pairs =
    match_pairs matches
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    "both iterations report the candidate"
    [ (1, 5); (2, 5) ]
    pairs

let test_skip_covered () =
  (* Same iteration, second context inside the first: it must be
     skipped, and results must not duplicate. *)
  let d =
    Doc.parse ~name:"sk"
      "<t>\
       <c1 start=\"0\" end=\"100\"/>\
       <c2 start=\"10\" end=\"50\"/>\
       <x start=\"20\" end=\"30\"/>\
       </t>"
  in
  let annots = Annots.extract Config.default d in
  let context =
    MJ.context_of_annotations annots ~iters:[| 7; 7 |] ~pres:[| 2; 3 |]
  in
  let cands = Annots.candidate_index_scan annots ~candidates:(Some [| 4 |]) in
  let events = ref [] in
  let matches =
    MJ.select_narrow
      ~trace:(fun e -> events := e :: !events)
      ~single_region:true context cands
  in
  Alcotest.(check bool) "skip event seen" true
    (List.exists (function MJ.Skip_covered _ -> true | _ -> false) !events);
  Alcotest.(check int) "single match, no duplicate" 1
    (Matches.length matches)

let test_wide_pending () =
  (* The candidate starts before the only context region but reaches
     into it: only the pending mechanism can find this overlap. *)
  let d =
    Doc.parse ~name:"wp"
      "<t>\
       <c1 start=\"50\" end=\"60\"/>\
       <x start=\"40\" end=\"55\"/>\
       <y start=\"10\" end=\"20\"/>\
       </t>"
  in
  let annots = Annots.extract Config.default d in
  let context =
    MJ.context_of_annotations annots ~iters:[| 1 |] ~pres:[| 2 |]
  in
  let cands = Annots.candidate_index_scan annots ~candidates:(Some [| 3; 4 |]) in
  let matches = MJ.select_wide ~single_region:true context cands in
  let pairs =
    match_pairs matches
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair int int))) "only the reaching candidate" [ (1, 3) ]
    pairs

let test_wide_boundary_touch () =
  (* Closed intervals: candidate ending exactly at the context start
     overlaps; one position earlier does not. *)
  let d =
    Doc.parse ~name:"wb"
      "<t>\
       <c1 start=\"50\" end=\"60\"/>\
       <x start=\"40\" end=\"50\"/>\
       <y start=\"40\" end=\"49\"/>\
       </t>"
  in
  let annots = Annots.extract Config.default d in
  let context = MJ.context_of_annotations annots ~iters:[| 1 |] ~pres:[| 2 |] in
  let cands = Annots.candidate_index_scan annots ~candidates:(Some [| 3; 4 |]) in
  let matches = MJ.select_wide ~single_region:true context cands in
  let cands_hit =
    match_pairs matches |> List.map snd
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "touching candidate only" [ 3 ] cands_hit

let test_context_skips_non_annotations () =
  let d =
    Doc.parse ~name:"na" "<t><c1 start=\"0\" end=\"9\"/><plain/></t>"
  in
  let annots = Annots.extract Config.default d in
  let context =
    MJ.context_of_annotations annots ~iters:[| 1; 1 |] ~pres:[| 2; 3 |]
  in
  Alcotest.(check int) "plain element dropped" 1 (MJ.context_row_count context)

(* The lazy-heap active set (the paper's suggested improvement for
   long active lists) must produce exactly the matches of the sorted
   list, on arbitrary overlap patterns. *)
let qcheck_heap_equals_list =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (1 -- 20) (pair (int_bound 80) (int_bound 30)))
        (list_size (0 -- 12) (pair (int_bound 5) (int_bound 30)))
        (list_size (0 -- 12) (int_bound 30)))
  in
  let print (regions, ctx, cand) =
    Printf.sprintf "regions=%s ctx=%s cand=%s"
      (String.concat ";"
         (List.map (fun (s, w) -> Printf.sprintf "[%d,%d]" s (s + w)) regions))
      (String.concat ","
         (List.map (fun (i, p) -> Printf.sprintf "%d:%d" i p) ctx))
      (String.concat "," (List.map string_of_int cand))
  in
  QCheck.Test.make ~name:"lazy-heap active set = sorted list" ~count:500
    (QCheck.make ~print gen)
    (fun (regions, ctx_rows, cand_picks) ->
      let body =
        String.concat ""
          (List.map
             (fun (s, w) ->
               Printf.sprintf "<a start=\"%d\" end=\"%d\"/>" s (s + w))
             regions)
      in
      let d = Doc.parse ~name:"rand" ("<t>" ^ body ^ "</t>") in
      let annots = Annots.extract Config.default d in
      let n = Array.length annots.Standoff.Annots.ids in
      let rows =
        List.sort_uniq compare
          (List.map
             (fun (it, p) -> (it, annots.Standoff.Annots.ids.(p mod n)))
             ctx_rows)
      in
      let context =
        MJ.context_of_annotations annots
          ~iters:(Array.of_list (List.map fst rows))
          ~pres:(Array.of_list (List.map snd rows))
      in
      let cand_ids =
        Array.of_list
          (List.sort_uniq compare
             (List.map (fun p -> annots.Standoff.Annots.ids.(p mod n)) cand_picks))
      in
      let cands = Annots.candidate_index_scan annots ~candidates:(Some cand_ids) in
      let canon matches =
        match_pairs matches |> List.sort_uniq compare
      in
      let narrow kind =
        canon (MJ.select_narrow ~active_set:kind ~single_region:true context cands)
      in
      let wide kind =
        canon (MJ.select_wide ~active_set:kind ~single_region:true context cands)
      in
      narrow Standoff.Active_set.Sorted_list = narrow Standoff.Active_set.Lazy_heap
      && wide Standoff.Active_set.Sorted_list = wide Standoff.Active_set.Lazy_heap)

(* In single-region mode the skip/replace refinements pin at most one
   live region per iteration, so the active set never outgrows the
   number of distinct live iterations — for the list and the heap
   alike, over arbitrary add/trim sequences.  The model keeps, per
   iteration, the furthest end added since its last trim. *)
type set_op = Add of int * int | Trim of int

let qcheck_active_size_bounded =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 60)
        (frequency
           [
             (3, map2 (fun it e -> Add (it, e)) (int_bound 5) (int_bound 50));
             (1, map (fun s -> Trim s) (int_bound 50));
           ]))
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Add (it, e) -> Printf.sprintf "add %d:%d" it e
           | Trim s -> Printf.sprintf "trim %d" s)
         ops)
  in
  QCheck.Test.make ~name:"single-region size <= live iterations" ~count:500
    (QCheck.make ~print gen)
    (fun ops ->
      List.for_all
        (fun kind ->
          let t = Active_set.create kind ~single_region:true ~iters:(0, 5) () in
          let col = Region_index.positions 1 in
          let live = Hashtbl.create 8 in
          List.for_all
            (fun (ctx, op) ->
              (match op with
              | Add (iter, e) ->
                  col.{0} <- Int64.of_int e;
                  Active_set.add t ~iter ~ctx col 0;
                  if
                    match Hashtbl.find_opt live iter with
                    | Some e' -> e' < e
                    | None -> true
                  then Hashtbl.replace live iter e
              | Trim s ->
                  col.{0} <- Int64.of_int s;
                  Active_set.trim t col 0;
                  Hashtbl.filter_map_inplace
                    (fun _ e -> if e < s then None else Some e)
                    live);
              (* Equal, so in particular never more. *)
              Active_set.size t = Hashtbl.length live)
            (List.mapi (fun k op -> (k, op)) ops))
        [ Active_set.Sorted_list; Active_set.Lazy_heap ])

let test_heap_rejects_multi_region () =
  Alcotest.(check bool) "multi-region rejected" true
    (match
       Active_set.create Active_set.Lazy_heap ~single_region:false
         ~iters:(0, 0) ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* An untraced sweep builds no trace events and boxes no positions:
   its minor-heap allocation does not grow with the rows swept (the
   large match and pending columns live in the major heap). *)
let test_untraced_sweep_allocation () =
  let sweep_words n =
    let body =
      String.concat ""
        (List.init n (fun i ->
             Printf.sprintf "<c start=\"%d\" end=\"%d\"/><r start=\"%d\" end=\"%d\"/>"
               (10 * i) ((10 * i) + 8) ((10 * i) + 1) ((10 * i) + 3)))
    in
    let d = Doc.parse ~name:"alloc" ("<t>" ^ body ^ "</t>") in
    let annots = Annots.extract Config.default d in
    let pres = Doc.elements_named d "c" in
    let context =
      MJ.context_of_annotations annots
        ~iters:(Array.init (Array.length pres) Fun.id)
        ~pres
    in
    let cands = Annots.candidate_index annots ~name:(Some "r") in
    List.map
      (fun sweep ->
        let before = Gc.minor_words () in
        let m = sweep ~single_region:true context cands in
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "one match per candidate" n (Matches.length m);
        words)
      [ MJ.select_narrow ?active_set:None ?trace:None ?deadline:None;
        MJ.select_wide ?active_set:None ?trace:None ?deadline:None ]
  in
  let small = sweep_words 1_000 and large = sweep_words 16_000 in
  List.iter2
    (fun s l ->
      Alcotest.(check bool)
        (Printf.sprintf "minor words %.0f at 1k rows, %.0f at 16k" s l)
        true
        (l < 2048. && l < s +. 512.))
    small large

(* A join whose result only [count] reads keeps its nodes as int
   keys: count(//c/select-narrow::r) over [n] contained pairs builds
   no [Item.Node] per row.  Its row columns are arrays of more than
   256 words, which the runtime allocates in the major heap directly,
   so the minor words of a warm run do not grow with [n], where a
   boxed node per row (a variant and a record, five words) would; and
   all words a run allocates stay within a few ints per row. *)
let test_join_count_allocation () =
  let words n =
    let body =
      String.concat ""
        (List.init n (fun i ->
             Printf.sprintf "<c start=\"%d\" end=\"%d\"/><r start=\"%d\" end=\"%d\"/>"
               (10 * i) ((10 * i) + 8) ((10 * i) + 1) ((10 * i) + 3)))
    in
    let coll = Collection.create () in
    ignore (Collection.load_string coll ~name:"alloc.xml" ("<t>" ^ body ^ "</t>"));
    let e = Engine.create ~jobs:1 ~cache:Engine.Cache_off coll in
    let q = "count(doc(\"alloc.xml\")//c/select-narrow::r)" in
    (* The first run builds the annotation table, the region indexes
       and the DataGuide; the second allocates only for the query. *)
    Alcotest.(check string) "count" (string_of_int n)
      (Engine.run e q).Engine.serialized;
    (* The least of three runs: a thread of the process that allocates
       meanwhile only adds words. *)
    let run () =
      let minor0, promoted0, major0 = Gc.counters () in
      ignore (Engine.run e q);
      let minor1, promoted1, major1 = Gc.counters () in
      ( minor1 -. minor0,
        minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) )
    in
    let runs = List.init 3 (fun _ -> run ()) in
    Engine.shutdown e;
    ( List.fold_left (fun acc (m, _) -> Float.min acc m) infinity runs,
      List.fold_left (fun acc (_, a) -> Float.min acc a) infinity runs )
  in
  let small_minor, small_all = words 1_000 and large_minor, large_all = words 16_000 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f at 1k rows, %.0f at 16k" small_minor large_minor)
    true
    (large_minor < small_minor +. 4096.);
  let per_row = (large_all -. small_all) /. 15_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per added row" per_row)
    true (per_row < 24.)

let test_deadline_aborts () =
  (* A deadline in the past must abort the sweep promptly. *)
  let regions =
    String.concat ""
      (List.init 5000 (fun i ->
           Printf.sprintf "<a start=\"%d\" end=\"%d\"/>" i (i + 10)))
  in
  let d = Doc.parse ~name:"big" ("<t>" ^ regions ^ "</t>") in
  let annots = Annots.extract Config.default d in
  let pres = Array.init 5000 (fun i -> i + 2) in
  let context =
    MJ.context_of_annotations annots ~iters:(Array.map (fun _ -> 0) pres) ~pres
  in
  let cands = Annots.candidate_index annots ~name:None in
  match
    Timing.run_with_timeout ~seconds:(-1.0) (fun deadline ->
        MJ.select_narrow ~deadline ~single_region:true context cands)
  with
  | Timing.Timed_out _ -> ()
  | Timing.Finished _ -> Alcotest.fail "expected Deadline_exceeded"

let () =
  Alcotest.run "merge-join"
    [
      ( "figure-4",
        [
          Alcotest.test_case "context sorted" `Quick test_figure4_context_sorted;
          Alcotest.test_case "execution trace" `Quick test_figure4_trace;
          Alcotest.test_case "cross-iteration counterexample" `Quick
            test_figure4_counterexample_candidate;
        ] );
      ( "active-list",
        [
          Alcotest.test_case "skip covered" `Quick test_skip_covered;
          Alcotest.test_case "non-annotations dropped" `Quick
            test_context_skips_non_annotations;
        ] );
      ( "wide",
        [
          Alcotest.test_case "pending candidates" `Quick test_wide_pending;
          Alcotest.test_case "boundary touch" `Quick test_wide_boundary_touch;
        ] );
      ( "active-set",
        [
          QCheck_alcotest.to_alcotest qcheck_heap_equals_list;
          QCheck_alcotest.to_alcotest qcheck_active_size_bounded;
          Alcotest.test_case "heap needs single-region" `Quick
            test_heap_rejects_multi_region;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "untraced sweep" `Quick
            test_untraced_sweep_allocation;
          Alcotest.test_case "join to count boxes no node" `Quick
            test_join_count_allocation;
        ] );
      ( "deadline",
        [ Alcotest.test_case "aborts" `Quick test_deadline_aborts ] );
    ]
