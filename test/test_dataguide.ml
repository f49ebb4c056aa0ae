(* Strong DataGuide unit tests: construction against a naive
   pre/parent-array reference, child vs descendant lookup semantics,
   per-path count accuracy, generation-driven rebuild, and the
   concurrent lazy build (one winner, everyone shares the published
   guide).  The byte-level equivalence of guide-backed query plans is
   covered by the differential suite. *)

module Doc = Standoff_store.Doc
module Dataguide = Standoff_store.Dataguide

(* ------------------------------------------------------------------ *)
(* Naive reference: evaluate a downward name path straight off the
   parent array, one linear document scan per step.                    *)

let naive d steps =
  let n = Doc.node_count d in
  let step set (desc, name) =
    let in_set p = List.mem p set in
    let rec ancestor_in_set p =
      match Doc.parent_of d p with
      | None -> false
      | Some q -> in_set q || ancestor_in_set q
    in
    let out = ref [] in
    for pre = n - 1 downto 0 do
      if Doc.kind_of d pre = Doc.Element && Doc.name_of d pre = Some name then
        let selected =
          if desc then ancestor_in_set pre
          else
            match Doc.parent_of d pre with
            | Some q -> in_set q
            | None -> false
        in
        if selected then out := pre :: !out
    done;
    !out
  in
  List.fold_left step [ 0 ] steps

(* Distinct root-to-node label paths, off the parent array. *)
let naive_path_count d =
  let tbl = Hashtbl.create 64 in
  let rec label_path pre =
    match Doc.parent_of d pre with
    | None -> ""
    | Some q ->
        label_path q ^ "/" ^ Option.value ~default:"" (Doc.name_of d pre)
  in
  for pre = 0 to Doc.node_count d - 1 do
    if Doc.kind_of d pre = Doc.Element then
      Hashtbl.replace tbl (label_path pre) ()
  done;
  Hashtbl.length tbl

let docs =
  [
    ("single", "<a/>");
    ("tiny", "<a><b/></a>");
    ( "xmark-ish",
      "<site><regions><europe><item/><item/></europe><asia><item/></asia>\
       </regions><people><person><name>n</name></person></people></site>" );
    (* Recursive nesting: the same names recur at different depths, so
       child and descendant steps genuinely diverge. *)
    ("recursive", "<a><b><a><b><a/></b></a></b><b/><c><a><c/></a></c></a>");
    (* Non-element nodes interleaved: text and comments must neither
       appear in the guide nor break the level-stack scan. *)
    ( "mixed",
      "<a>t1<b>t2<!--x--><c/>t3</b><?pi d?><b><c>deep</c></b>tail</a>" );
    (* Many same-named siblings: one guide node, many pres. *)
    ( "wide",
      "<r>" ^ String.concat "" (List.init 40 (fun _ -> "<x><y/></x>")) ^ "</r>"
    );
  ]

(* Every step list over a small alphabet up to length 3 — exhaustive
   enough to cover child-after-descendant, repeated names, and absent
   names on every document above. *)
let all_paths =
  let names = [ "a"; "b"; "c"; "site"; "item"; "x"; "y"; "nope" ] in
  let steps = List.concat_map (fun n -> [ (false, n); (true, n) ]) names in
  let shorter = List.concat_map (fun s -> List.map (fun t -> [ s; t ]) steps) steps in
  List.map (fun s -> [ s ]) steps
  @ shorter
  @ List.concat_map
      (fun pair -> List.map (fun t -> pair @ [ t ]) [ (false, "a"); (true, "item"); (true, "y") ])
      shorter

let test_lookup_vs_naive () =
  List.iter
    (fun (label, xml) ->
      let d = Doc.parse ~name:(label ^ ".xml") xml in
      let g = Dataguide.build ~generation:0 d in
      Alcotest.(check int)
        (label ^ ": path count")
        (naive_path_count d)
        (Dataguide.path_count g);
      List.iter
        (fun steps ->
          let expected = naive d steps in
          let got = Array.to_list (Dataguide.lookup d g steps) in
          let path =
            String.concat ""
              (List.map
                 (fun (desc, n) -> (if desc then "//" else "/") ^ n)
                 steps)
          in
          Alcotest.(check (list int))
            (label ^ ": lookup " ^ path)
            expected got;
          Alcotest.(check int)
            (label ^ ": count " ^ path)
            (List.length expected)
            (Dataguide.count d g steps))
        all_paths)
    docs

(* Descendant steps can reach the same element through several guide
   branches; the result must still be duplicate-free and sorted. *)
let test_sorted_dedup () =
  let d =
    Doc.parse ~name:"dd.xml" "<a><b><c/><b><c/></b></b><b><c/></b></a>"
  in
  let g = Dataguide.build ~generation:0 d in
  let pres = Dataguide.lookup d g [ (true, "b"); (true, "c") ] in
  let l = Array.to_list pres in
  Alcotest.(check (list int)) "sorted dedup" (List.sort_uniq compare l) l;
  Alcotest.(check (list int))
    "matches naive"
    (naive d [ (true, "b"); (true, "c") ])
    l

(* ------------------------------------------------------------------ *)
(* Thousands of elements per label path: each path's pre vector must
   grow many times without losing, reordering or misfiling a pre.      *)

let test_large_build () =
  let xml =
    "<site><regions>"
    ^ String.concat ""
        (List.init 3000 (fun i ->
             Printf.sprintf "<item><name>n%d</name><payload/></item>" i))
    ^ "</regions><people><person/></people></site>"
  in
  let d = Doc.parse ~name:"big.xml" xml in
  let g = Dataguide.build ~generation:0 d in
  Alcotest.(check int) "path count" (naive_path_count d)
    (Dataguide.path_count g);
  List.iter
    (fun steps ->
      let expected = naive d steps in
      Alcotest.(check (list int)) "lookup" expected
        (Array.to_list (Dataguide.lookup d g steps));
      Alcotest.(check int) "count" (List.length expected)
        (Dataguide.count d g steps))
    [
      [ (false, "site"); (false, "regions"); (false, "item") ];
      [ (true, "item"); (false, "name") ];
      [ (true, "name") ];
      [ (true, "payload") ];
      [ (false, "site"); (true, "person") ];
    ]

(* ------------------------------------------------------------------ *)
(* Generation-driven rebuild                                           *)

let test_generation_rebuild () =
  let d = Doc.parse ~name:"gen.xml" "<a><b/><b/></a>" in
  let g0 = Dataguide.get ~generation:0 d in
  (* Same generation: the cached guide is served, physically. *)
  Alcotest.(check bool) "cached hit is physical" true
    (g0 == Dataguide.get ~generation:0 d);
  (* A changed generation (what every update bumps) must rebuild
     rather than serve the stale stamp. *)
  let gen_after = 1 in
  let g1 = Dataguide.get ~generation:gen_after d in
  Alcotest.(check bool) "stale guide not reused" true (not (g1 == g0));
  Alcotest.(check int) "rebuilt under new stamp" gen_after
    g1.Doc.guide_generation;
  (* The rebuilt guide answers identically (structure unchanged). *)
  Alcotest.(check (list int))
    "same answer after rebuild"
    (Array.to_list (Dataguide.lookup d g0 [ (true, "b") ]))
    (Array.to_list (Dataguide.lookup d g1 [ (true, "b") ]))

(* ------------------------------------------------------------------ *)
(* Concurrent lazy build: one winner, everyone shares its guide        *)

let test_concurrent_get () =
  let xml =
    "<r>" ^ String.concat "" (List.init 2000 (fun _ -> "<x><y/></x>")) ^ "</r>"
  in
  let d = Doc.parse ~name:"conc.xml" xml in
  let barrier = Atomic.make 0 in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < 8 do
              Domain.cpu_relax ()
            done;
            Dataguide.get ~generation:7 d))
  in
  let guides = List.map Domain.join domains in
  let first = List.hd guides in
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d shares the published guide" i)
        true (g == first))
    guides;
  Alcotest.(check int) "published stamp" 7 first.Doc.guide_generation;
  Alcotest.(check bool) "cache slot holds it" true
    (match Doc.dataguide_cache d with Some g -> g == first | None -> false);
  Alcotest.(check (list int))
    "built guide answers correctly"
    (naive d [ (false, "r"); (false, "x"); (false, "y") ])
    (Array.to_list
       (Dataguide.lookup d first [ (false, "r"); (false, "x"); (false, "y") ]))

let () =
  Alcotest.run "dataguide"
    [
      ( "dataguide",
        [
          Alcotest.test_case "lookup/count vs naive reference" `Quick
            test_lookup_vs_naive;
          Alcotest.test_case "descendant results sorted and dedup'd" `Quick
            test_sorted_dedup;
          Alcotest.test_case "large document build vs naive reference" `Quick
            test_large_build;
          Alcotest.test_case "generation change forces rebuild" `Quick
            test_generation_rebuild;
          Alcotest.test_case "concurrent lazy build from 8 domains" `Quick
            test_concurrent_get;
        ] );
    ]
