(* Tests for the shard router: consistent-hash placement (determinism,
   balance, ~1/n movement on topology change), routed queries
   byte-identical to a single-process server across every strategy,
   framed-ingest splitting with per-document partial-failure reporting,
   bearer-token auth at the front, readiness tracking of shard health,
   and end-to-end streaming through the proxy.  Shards here are
   in-process [Server] instances attached as external specs — process
   supervision (spawn, kill -9, restart with backoff) is exercised by
   scripts/router_smoke.sh against real child processes. *)

module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Engine = Standoff_xquery.Engine
module Http = Standoff_server.Http
module Server = Standoff_server.Server
module Router = Standoff_router.Router
module Chash = Standoff_router.Chash

(* ---------------- tiny client (same shape as test_server) -------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let request ?headers reader fd ~meth ~target body =
  Http.write_request fd ~meth ~target ?headers body;
  Http.read_response reader

let oneshot ?headers port ~meth ~target body =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> close_noerr fd)
    (fun () -> request ?headers (Http.reader fd) fd ~meth ~target body)

(* Raw bytes in, one response out (for malformed-request tests). *)
let raw_roundtrip port bytes =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> close_noerr fd)
    (fun () ->
      let len = String.length bytes in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring fd bytes !off (len - !off)
      done;
      Http.read_response (Http.reader fd))

let check_status msg expected (resp : Http.response) =
  Alcotest.(check int) msg expected resp.Http.status

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* ---------------- fixtures ---------------- *)

let shard_doc_xml =
  "<t><p start=\"0\" end=\"10\"/><c start=\"2\" end=\"8\"/>\
   <w start=\"1\" end=\"3\"/><w start=\"4\" end=\"6\"/>\
   <w start=\"7\" end=\"9\"/></t>"

let frame name xml = Printf.sprintf "%s %d\n%s\n" name (String.length xml) xml
let words_query name = Printf.sprintf "doc(\"%s\")//p/select-narrow::w" name
let count_query name = Printf.sprintf "count(doc(\"%s\")//p/select-narrow::c)" name

(* An in-process shard: an ordinary [Server] over an empty collection,
   filled through /ingest like a real deployment would be. *)
let start_shard ?auth_token () =
  let engine =
    Engine.create ~jobs:1 ~cache:Engine.Cache_off (Collection.create ())
  in
  let config =
    {
      Server.default_config with
      port = 0;
      workers = 2;
      socket_timeout_s = 5.0;
      grace_s = 5.0;
      auth_token;
    }
  in
  let server = Server.create ~config engine in
  Server.start server;
  server

let spec_of name server =
  {
    Router.sp_name = name;
    sp_host = "127.0.0.1";
    sp_port = Server.port server;
    sp_spawn = None;
  }

let wait_router_ready ?(timeout_s = 10.0) r =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if Router.ready r then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* Two in-process shards behind a router, torn down in order. *)
let with_routed ?router_auth ?shard_token ?shard_auth f =
  let s0 = start_shard ?auth_token:shard_auth () in
  let s1 = start_shard ?auth_token:shard_auth () in
  let config =
    {
      Router.default_config with
      port = 0;
      auth_token = router_auth;
      shard_token;
    }
  in
  let router =
    Router.create ~config [ spec_of "sh0" s0; spec_of "sh1" s1 ]
  in
  Router.start router;
  Fun.protect
    ~finally:(fun () ->
      Router.stop ~grace_s:2.0 router;
      Server.stop s0;
      Server.stop s1)
    (fun () ->
      Alcotest.(check bool) "router ready" true (wait_router_ready router);
      f router)

(* ---------------- consistent hashing ---------------- *)

let keys n = List.init n (fun i -> Printf.sprintf "doc-%04d.xml" i)

let test_chash_determinism_and_balance () =
  let names = [ "s0"; "s1"; "s2"; "s3" ] in
  let a = Chash.create names and b = Chash.create names in
  let ks = keys 800 in
  List.iter
    (fun k ->
      Alcotest.(check string)
        ("placement of " ^ k ^ " deterministic")
        (Chash.shard a k) (Chash.shard b k))
    ks;
  let counts = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let s = Chash.shard a k in
      Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    ks;
  List.iter
    (fun s ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      (* 160 vnodes keep the arcs smooth: no shard should stray far
         from the 200-key average on 800 keys. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s holds a fair share (%d)" s c)
        true
        (c > 80 && c < 400))
    names

let test_chash_stability () =
  let four = Chash.create [ "s0"; "s1"; "s2"; "s3" ] in
  let five = Chash.create [ "s0"; "s1"; "s2"; "s3"; "s4" ] in
  let ks = keys 2000 in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Chash.shard four k and after = Chash.shard five k in
      if before <> after then begin
        incr moved;
        (* Growth only moves keys *onto* the new shard — a key that
           changes hands but lands on an old shard would mean the ring
           reshuffled. *)
        Alcotest.(check string) ("moved key lands on the new shard: " ^ k)
          "s4" after
      end)
    ks;
  let frac = float_of_int !moved /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "about 1/5 of keys move on growth (%.3f)" frac)
    true
    (frac > 0.08 && frac < 0.35);
  (* Removal is the mirror image: keys not on the removed shard stay
     exactly where they were. *)
  let three = Chash.create [ "s0"; "s1"; "s2" ] in
  List.iter
    (fun k ->
      let before = Chash.shard four k in
      if before <> "s3" then
        Alcotest.(check string)
          ("survivor keeps its shard: " ^ k)
          before (Chash.shard three k))
    ks

(* ---------------- routed vs single-process ---------------- *)

let test_routed_byte_identical () =
  (* The same corpus ingested through the router (split across two
     shards) and into one single-process server must answer every
     query byte-identically, whichever strategy runs it. *)
  let single = start_shard () in
  Fun.protect
    ~finally:(fun () -> Server.stop single)
    (fun () ->
      with_routed (fun router ->
          let rp = Router.port router and sp = Server.port single in
          let names = List.init 12 (fun i -> Printf.sprintf "doc-%c.xml" (Char.chr (Char.code 'a' + i))) in
          let batch =
            String.concat "" (List.map (fun n -> frame n shard_doc_xml) names)
          in
          let r = oneshot rp ~meth:"POST" ~target:"/ingest?convert=none" batch in
          check_status "routed ingest" 200 r;
          Alcotest.(check bool) "every document reported ok" false
            (contains "\"ok\": false" r.Http.r_body);
          check_status "single ingest" 200
            (oneshot sp ~meth:"POST" ~target:"/ingest?convert=none" batch);
          (* The split actually used both shards. *)
          let used =
            List.sort_uniq compare (List.map (Router.shard_of_doc router) names)
          in
          Alcotest.(check int) "both shards hold documents" 2 (List.length used);
          (* Every document, default strategy. *)
          List.iter
            (fun n ->
              let routed = oneshot rp ~meth:"POST" ~target:"/query" (words_query n) in
              let direct = oneshot sp ~meth:"POST" ~target:"/query" (words_query n) in
              check_status (n ^ " routed") 200 routed;
              Alcotest.(check string) (n ^ " byte-identical") direct.Http.r_body
                routed.Http.r_body;
              Alcotest.(check (option string))
                (n ^ " names its shard")
                (Some (Router.shard_of_doc router n))
                (Http.response_header routed "x-standoff-shard"))
            names;
          (* A few documents, every strategy. *)
          List.iter
            (fun n ->
              List.iter
                (fun strategy ->
                  let s = Config.strategy_to_string strategy in
                  let target = "/query?strategy=" ^ Http.url_encode s in
                  let routed = oneshot rp ~meth:"POST" ~target (words_query n) in
                  let direct = oneshot sp ~meth:"POST" ~target (words_query n) in
                  check_status (s ^ " " ^ n) 200 routed;
                  Alcotest.(check string)
                    (s ^ " " ^ n ^ " byte-identical")
                    direct.Http.r_body routed.Http.r_body)
                Config.all_strategies)
            [ "doc-a.xml"; "doc-b.xml"; "doc-c.xml" ];
          (* Streaming end-to-end: the proxy re-chunks the shard's
             chunked reply without changing a byte. *)
          let buffered = oneshot rp ~meth:"POST" ~target:"/query" (words_query "doc-a.xml") in
          let streamed =
            oneshot rp ~meth:"POST" ~target:"/query?stream=1" (words_query "doc-a.xml")
          in
          check_status "streamed routed" 200 streamed;
          Alcotest.(check (option string))
            "chunked through the router" (Some "chunked")
            (Http.response_header streamed "transfer-encoding");
          Alcotest.(check string) "streamed byte-identical" buffered.Http.r_body
            streamed.Http.r_body;
          (* Updates route by ?doc= and are visible to later queries. *)
          let n = "doc-a.xml" in
          check_status "routed update" 200
            (oneshot rp ~meth:"POST"
               ~target:(Printf.sprintf "/update?doc=%s&pre=2&start=50&end=60" n)
               "");
          let q = oneshot rp ~meth:"POST" ~target:"/query" (count_query n) in
          Alcotest.(check string) "update visible through the router" "0\n"
            q.Http.r_body;
          (* Aggregated metrics carry the shard label and up-gauges. *)
          let m = oneshot rp ~meth:"GET" ~target:"/metrics" "" in
          check_status "metrics" 200 m;
          Alcotest.(check bool) "shard label injected" true
            (contains "shard=\"sh0\"" m.Http.r_body);
          Alcotest.(check bool) "up gauge synthesized" true
            (contains "standoff_router_shard_up" m.Http.r_body)))

let test_routing_rules () =
  with_routed (fun router ->
      let p = Router.port router in
      check_status "ingest seed" 200
        (oneshot p ~meth:"POST" ~target:"/ingest?convert=none"
           (frame "a.xml" shard_doc_xml ^ frame "b.xml" shard_doc_xml));
      (* ?context= pins placement without a doc() reference. *)
      let r =
        oneshot p ~meth:"POST" ~target:"/query?context=a.xml"
          "count(//p/select-narrow::c)"
      in
      check_status "context-routed" 200 r;
      Alcotest.(check string) "context answer" "1\n" r.Http.r_body;
      (* A reference-free query cannot be placed on two shards. *)
      check_status "unroutable query" 400
        (oneshot p ~meth:"POST" ~target:"/query" "1 + 1");
      (* Two documents on different shards in one query: refused. *)
      let a = Router.shard_of_doc router "a.xml" in
      let rec other i =
        let n = Printf.sprintf "x%d.xml" i in
        if Router.shard_of_doc router n <> a then n else other (i + 1)
      in
      let b = other 0 in
      check_status "cross-shard query refused" 400
        (oneshot p ~meth:"POST" ~target:"/query"
           (Printf.sprintf "count(doc(\"a.xml\")//p) + count(doc(%S)//p)" b));
      (* Plumbing: 404 off the map, 405 with Allow on a wrong method. *)
      check_status "unknown path" 404 (oneshot p ~meth:"GET" ~target:"/nope" "");
      let m = oneshot p ~meth:"DELETE" ~target:"/query" "" in
      check_status "wrong method" 405 m;
      Alcotest.(check (option string))
        "Allow header" (Some "POST")
        (Http.response_header m "allow");
      (* Update without ?doc= has nowhere to go. *)
      check_status "update without doc" 400
        (oneshot p ~meth:"POST" ~target:"/update?pre=2&start=0&end=1" ""))

(* ---------------- ingest splitting and partial failure ----------- *)

let test_ingest_partial_failure () =
  with_routed (fun router ->
      let p = Router.port router in
      (* Two documents on different shards, one of them invalid: its
         shard's sub-batch fails, the other lands — and the per-doc
         report says exactly that. *)
      let good = "good.xml" in
      let gshard = Router.shard_of_doc router good in
      let rec find_other i =
        let n = Printf.sprintf "bad%d.xml" i in
        if Router.shard_of_doc router n <> gshard then n else find_other (i + 1)
      in
      let bad = find_other 0 in
      let invalid = "<t><p start=\"0\"/></t>" in
      let r =
        oneshot p ~meth:"POST" ~target:"/ingest?convert=none"
          (frame good shard_doc_xml ^ frame bad invalid)
      in
      check_status "mixed batch answers 502" 502 r;
      Alcotest.(check bool) "failing document reported" true
        (contains
           (Printf.sprintf "{\"name\": \"%s\", \"shard\": \"%s\", \"ok\": false"
              bad
              (Router.shard_of_doc router bad))
           r.Http.r_body);
      Alcotest.(check bool) "landed document reported" true
        (contains
           (Printf.sprintf "{\"name\": \"%s\", \"shard\": \"%s\", \"ok\": true"
              good gshard)
           r.Http.r_body);
      (* The good document really is queryable afterwards. *)
      let q = oneshot p ~meth:"POST" ~target:"/query" (count_query good) in
      check_status "landed document queryable" 200 q;
      Alcotest.(check string) "answer" "1\n" q.Http.r_body;
      (* ?name= routes the raw body whole. *)
      check_status "named single-document ingest" 200
        (oneshot p ~meth:"POST" ~target:"/ingest?name=whole.xml&convert=none"
           shard_doc_xml);
      Alcotest.(check string) "whole document queryable" "1\n"
        (oneshot p ~meth:"POST" ~target:"/query" (count_query "whole.xml"))
          .Http.r_body;
      (* Broadcast: every shard snapshots (in-memory shards have no
         durability, but the fan-out and aggregation still answer). *)
      let s = oneshot p ~meth:"POST" ~target:"/admin/snapshot" "" in
      Alcotest.(check bool) "snapshot names both shards" true
        (contains "\"sh0\"" s.Http.r_body && contains "\"sh1\"" s.Http.r_body))

(* ---------------- auth ---------------- *)

let test_auth () =
  (* Interior and exterior both token-protected: the client presents
     the router's token, the router presents the shard token. *)
  with_routed ~router_auth:"outer" ~shard_token:"inner" ~shard_auth:"inner"
    (fun router ->
      let p = Router.port router in
      let r = oneshot p ~meth:"POST" ~target:"/query" "1" in
      check_status "no token" 401 r;
      Alcotest.(check bool) "challenge present" true
        (Http.response_header r "www-authenticate" <> None);
      check_status "wrong token" 401
        (oneshot p
           ~headers:[ ("Authorization", "Bearer outerr") ]
           ~meth:"POST" ~target:"/query" "1");
      check_status "liveness stays open" 200
        (oneshot p ~meth:"GET" ~target:"/healthz" "");
      check_status "admin surface gated" 401
        (oneshot p ~meth:"POST" ~target:"/admin/snapshot" "");
      let auth = [ ("Authorization", "Bearer outer") ] in
      check_status "authorized ingest crosses both hops" 200
        (oneshot p ~headers:auth ~meth:"POST"
           ~target:"/ingest?name=auth.xml&convert=none" shard_doc_xml);
      let q =
        oneshot p ~headers:auth ~meth:"POST" ~target:"/query"
          (count_query "auth.xml")
      in
      check_status "authorized query" 200 q;
      Alcotest.(check string) "answer" "1\n" q.Http.r_body)

(* ---------------- hostile requests ---------------- *)

(* Requests both front ends must refuse, as raw bytes, with the status
   and (where one is owed) the header of the refusal.  Each
   Content-Length reject carries a body as long as a lenient integer
   parse of the header would make it. *)
let hostile_requests =
  let with_length value body =
    Printf.sprintf "GET /healthz HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s"
      value body
  in
  [
    ("bad request line", "NOT A VALID LINE\r\n\r\n", 400, None);
    ( "folded header",
      "GET /healthz HTTP/1.1\r\nA: b\r\n folded\r\n\r\n",
      400,
      None );
    ( "body over max_body",
      "POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
      ^ String.make 100 'x',
      413,
      None );
    ( "chunked body",
      "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      501,
      None );
    ("unknown path", "GET /nope HTTP/1.1\r\n\r\n", 404, None);
    ( "wrong method",
      "DELETE /metrics HTTP/1.1\r\n\r\n",
      405,
      Some ("allow", "GET") );
    ( "missing token",
      "POST /query HTTP/1.1\r\nContent-Length: 1\r\n\r\n1",
      401,
      Some ("www-authenticate", "Bearer") );
    (* The token is checked before the method and the path: a wrong
       method on a protected path, or any path under /admin/, is a 401. *)
    ( "wrong method, missing token",
      "DELETE /query HTTP/1.1\r\n\r\n",
      401,
      Some ("www-authenticate", "Bearer") );
    ( "unknown admin path, missing token",
      "POST /admin/nope HTTP/1.1\r\n\r\n",
      401,
      Some ("www-authenticate", "Bearer") );
    ("hex content-length", with_length "0x10" (String.make 16 'x'), 400, None);
    ( "underscore content-length",
      with_length "1_0" (String.make 10 'x'),
      400,
      None );
    ("signed content-length", with_length "+5" (String.make 5 'x'), 400, None);
    ( "binary content-length",
      with_length "0b11" (String.make 3 'x'),
      400,
      None );
    ( "overflowing content-length",
      with_length "99999999999999999999" "",
      400,
      None );
    ( "malformed readiness flag",
      "GET /healthz?ready=bogus HTTP/1.1\r\n\r\n",
      400,
      None );
    ( "conflicting content-lengths",
      "GET /healthz HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx",
      400,
      None );
  ]

let test_hostile_requests () =
  let shard = start_shard () in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          port = 0;
          workers = 1;
          max_body_bytes = 64;
          socket_timeout_s = 5.0;
          auth_token = Some "secret";
        }
      (Engine.create ~jobs:1 ~cache:Engine.Cache_off (Collection.create ()))
  in
  let router =
    Router.create
      ~config:
        {
          Router.default_config with
          port = 0;
          max_body_bytes = 64;
          auth_token = Some "secret";
        }
      [ spec_of "sh0" shard ]
  in
  Server.start server;
  Router.start router;
  Fun.protect
    ~finally:(fun () ->
      Router.stop ~grace_s:2.0 router;
      Server.stop server;
      Server.stop shard)
    (fun () ->
      List.iter
        (fun (label, bytes, status, header) ->
          List.iter
            (fun (front, port) ->
              let r = raw_roundtrip port bytes in
              check_status (front ^ ": " ^ label) status r;
              Option.iter
                (fun (name, value) ->
                  Alcotest.(check (option string))
                    (front ^ ": " ^ label ^ " " ^ name)
                    (Some value)
                    (Http.response_header r name))
                header)
            [ ("server", Server.port server); ("router", Router.port router) ])
        hostile_requests)

(* ---------------- readiness ---------------- *)

let test_readiness_tracks_shards () =
  (* One healthy shard, one address nobody listens on: the router is
     alive but not ready, requests routed to the dead shard answer 503
     with Retry-After — and readiness arrives when a server appears on
     that address. *)
  let s0 = start_shard () in
  let dead_port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> close_noerr fd)
      (fun () ->
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false)
  in
  let specs =
    [
      spec_of "sh0" s0;
      { Router.sp_name = "sh1"; sp_host = "127.0.0.1"; sp_port = dead_port;
        sp_spawn = None };
    ]
  in
  let router =
    Router.create ~config:{ Router.default_config with port = 0 } specs
  in
  Router.start router;
  let late = ref None in
  Fun.protect
    ~finally:(fun () ->
      Router.stop ~grace_s:2.0 router;
      Server.stop s0;
      Option.iter Server.stop !late)
    (fun () ->
      let p = Router.port router in
      Thread.delay 0.6 (* a couple of probe rounds *);
      Alcotest.(check bool) "not ready with a dead shard" false
        (Router.ready router);
      check_status "alive regardless" 200
        (oneshot p ~meth:"GET" ~target:"/healthz" "");
      let r = oneshot p ~meth:"GET" ~target:"/healthz?ready=1" "" in
      check_status "readiness says 503" 503 r;
      Alcotest.(check bool) "laggard named" true (contains "sh1" r.Http.r_body);
      (* A request owned by the dead shard parks with Retry-After; the
         healthy shard keeps serving. *)
      let rec owned_by shard i =
        let n = Printf.sprintf "r%d.xml" i in
        if Router.shard_of_doc router n = shard then n else owned_by shard (i + 1)
      in
      let on_dead = owned_by "sh1" 0 and on_live = owned_by "sh0" 0 in
      let r =
        oneshot p ~meth:"POST" ~target:"/query" (count_query on_dead)
      in
      check_status "dead shard's documents answer 503" 503 r;
      Alcotest.(check bool) "retry-after present" true
        (Http.response_header r "retry-after" <> None);
      check_status "healthy shard still serves" 200
        (oneshot p ~meth:"POST"
           ~target:(Printf.sprintf "/ingest?name=%s&convert=none" on_live)
           shard_doc_xml);
      (* The shard comes up on the dead address: readiness follows. *)
      let s1 =
        let engine =
          Engine.create ~jobs:1 ~cache:Engine.Cache_off (Collection.create ())
        in
        let config =
          { Server.default_config with port = dead_port; workers = 2 }
        in
        let server = Server.create ~config engine in
        Server.start server;
        server
      in
      late := Some s1;
      Alcotest.(check bool) "ready once the shard appears" true
        (wait_router_ready router);
      check_status "recovered shard serves its documents" 200
        (oneshot p ~meth:"POST"
           ~target:(Printf.sprintf "/ingest?name=%s&convert=none" on_dead)
           shard_doc_xml))

let () =
  Alcotest.run "router"
    [
      ( "chash",
        [
          Alcotest.test_case "determinism and balance" `Quick
            test_chash_determinism_and_balance;
          Alcotest.test_case "~1/n movement on growth and removal" `Quick
            test_chash_stability;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "routed bodies byte-identical to one process"
            `Quick test_routed_byte_identical;
          Alcotest.test_case "routing rules (context, refs, 400s)" `Quick
            test_routing_rules;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "split batches, partial failure per document"
            `Quick test_ingest_partial_failure;
        ] );
      ( "auth", [ Alcotest.test_case "bearer on both hops" `Quick test_auth ] );
      ( "hostile",
        [
          Alcotest.test_case "refusals match a server's" `Quick
            test_hostile_requests;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "readiness tracks shard health" `Quick
            test_readiness_tracks_shards;
        ] );
    ]
