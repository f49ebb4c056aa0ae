(* Tests for the network query service: HTTP parsing (malformed input
   answered with 400/413, never a crash), result bodies byte-identical
   to direct Engine runs across strategies, query/update interleaving
   through the readers-writer lock, load shedding on a full admission
   queue, keep-alive bounds, graceful drain on stop — plus the engine
   regression the server depends on: a deadline firing during result
   serialization raises cleanly instead of leaking partial output. *)

module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Region = Standoff_interval.Region
module Engine = Standoff_xquery.Engine
module Timing = Standoff_util.Timing
module Trace = Standoff_obs.Trace
module Http = Standoff_server.Http
module Server = Standoff_server.Server
module Pool = Standoff_util.Pool

(* ---------------- fixtures ---------------- *)

let region_doc_xml =
  "<t><p start=\"0\" end=\"10\"/><c start=\"2\" end=\"8\"/>\
   <w start=\"1\" end=\"3\"/><w start=\"4\" end=\"6\"/>\
   <w start=\"7\" end=\"9\"/></t>"

let fresh_collection () =
  let coll = Collection.create () in
  ignore (Collection.add coll (Doc.parse ~name:"upd.xml" region_doc_xml));
  coll

let narrow_count = "count(doc(\"upd.xml\")//p/select-narrow::c)"
let narrow_words = "doc(\"upd.xml\")//p/select-narrow::w"

let default_test_config =
  {
    Server.default_config with
    port = 0;
    workers = 2;
    queue_capacity = 8;
    socket_timeout_s = 5.0;
    grace_s = 5.0;
    default_timeout_ms = Some 10_000.0;
  }

let with_server ?(config = default_test_config) ?engine f =
  let engine =
    match engine with
    | Some e -> e
    | None -> Engine.create ~jobs:1 ~cache:Engine.Cache_off (fresh_collection ())
  in
  let server = Server.create ~config engine in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

(* ---------------- tiny client ---------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One request over an existing connection (keep-alive reuse). *)
let request ?headers reader fd ~meth ~target body =
  Http.write_request fd ~meth ~target ?headers body;
  Http.read_response reader

(* Connect, one request, close. *)
let oneshot port ~meth ~target body =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> close_noerr fd)
    (fun () -> request (Http.reader fd) fd ~meth ~target body)

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

(* ---------------- request parsing ---------------- *)

let test_malformed_request_line () =
  with_server (fun srv ->
      let p = Server.port srv in
      check_status "garbage line" 400 (raw_roundtrip p "NOT A VALID LINE\r\n\r\n");
      check_status "two tokens" 400 (raw_roundtrip p "GET /healthz\r\n\r\n");
      check_status "bad version" 400
        (raw_roundtrip p "GET /healthz HTTP1.1\r\n\r\n");
      check_status "relative target" 400
        (raw_roundtrip p "GET healthz HTTP/1.1\r\n\r\n"))

let test_malformed_headers () =
  with_server (fun srv ->
      let p = Server.port srv in
      check_status "header without colon" 400
        (raw_roundtrip p "GET /healthz HTTP/1.1\r\nbogus header\r\n\r\n");
      check_status "header folding rejected" 400
        (raw_roundtrip p
           "GET /healthz HTTP/1.1\r\nA: b\r\n folded\r\n\r\n");
      check_status "bad content-length" 400
        (raw_roundtrip p
           "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
      (* Chunked request bodies are unimplemented, not malformed: the
         answer is a diagnosable 501, never a dropped connection. *)
      check_status "chunked request body answers 501" 501
        (raw_roundtrip p
           "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
      (* Content-Length is 1*DIGIT (RFC 9110 §8.6).  Each body is as
         long as a lenient integer parse of the header would make it,
         so only the strict parser answers 400 instead of 200. *)
      List.iter
        (fun (value, body) ->
          check_status ("content-length " ^ value) 400
            (raw_roundtrip p
               (Printf.sprintf
                  "GET /healthz HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s"
                  value body)))
        [
          ("0x10", String.make 16 'x');
          ("1_0", String.make 10 'x');
          ("+5", String.make 5 'x');
          ("0b11", String.make 3 'x');
          ("99999999999999999999", "");
        ];
      check_status "conflicting content-lengths" 400
        (raw_roundtrip p
           "GET /healthz HTTP/1.1\r\nContent-Length: 1\r\n\
            Content-Length: 2\r\n\r\nx"))

let test_body_cap () =
  let config = { default_test_config with max_body_bytes = 64 } in
  with_server ~config (fun srv ->
      let big = String.make 100 'x' in
      check_status "oversized body" 413
        (oneshot (Server.port srv) ~meth:"POST" ~target:"/query" big))

let test_routing () =
  with_server (fun srv ->
      let p = Server.port srv in
      let r = oneshot p ~meth:"GET" ~target:"/healthz" "" in
      check_status "healthz" 200 r;
      Alcotest.(check string) "healthz body" "ok\n" r.Http.r_body;
      check_status "unknown path" 404 (oneshot p ~meth:"GET" ~target:"/nope" "");
      let r = oneshot p ~meth:"DELETE" ~target:"/query" "" in
      check_status "wrong method" 405 r;
      Alcotest.(check (option string))
        "Allow header" (Some "POST")
        (Http.response_header r "allow");
      check_status "empty query body" 400
        (oneshot p ~meth:"POST" ~target:"/query" "");
      let r = oneshot p ~meth:"GET" ~target:"/metrics" "" in
      check_status "metrics" 200 r;
      Alcotest.(check bool)
        "metrics exposition contains the server counters" true
        (let rex = "standoff_server_requests_total" in
         let n = String.length rex and m = String.length r.Http.r_body in
         let rec scan i =
           i + n <= m && (String.sub r.Http.r_body i n = rex || scan (i + 1))
         in
         scan 0);
      let r = oneshot p ~meth:"GET" ~target:"/slow" "" in
      check_status "slow log" 200 r)

(* ---------------- query results ---------------- *)

let test_bodies_byte_identical_across_strategies () =
  (* The served body must be exactly what a direct Engine.run
     serializes (plus the trailing newline), for every strategy. *)
  let reference = Engine.create ~jobs:1 (fresh_collection ()) in
  with_server (fun srv ->
      let p = Server.port srv in
      List.iter
        (fun strategy ->
          let s = Config.strategy_to_string strategy in
          let expected =
            (Engine.run reference ~strategy
               narrow_words)
              .Engine.serialized
          in
          let r =
            oneshot p ~meth:"POST"
              ~target:("/query?strategy=" ^ Http.url_encode s)
              narrow_words
          in
          check_status (s ^ " status") 200 r;
          Alcotest.(check string)
            (s ^ " body byte-identical") (expected ^ "\n") r.Http.r_body;
          Alcotest.(check bool)
            (s ^ " has request id") true
            (Http.response_header r "x-request-id" <> None))
        Config.all_strategies)

let test_query_knobs () =
  with_server (fun srv ->
      let p = Server.port srv in
      (* jobs override parses and answers the same result. *)
      let r =
        oneshot p ~meth:"POST" ~target:"/query?jobs=2&cache=off" narrow_count
      in
      check_status "jobs=2" 200 r;
      Alcotest.(check string) "jobs=2 answer" "1\n" r.Http.r_body;
      check_status "malformed jobs" 400
        (oneshot p ~meth:"POST" ~target:"/query?jobs=many" narrow_count);
      check_status "unknown strategy" 400
        (oneshot p ~meth:"POST" ~target:"/query?strategy=quantum" narrow_count);
      check_status "malformed timeout" 400
        (oneshot p ~meth:"POST" ~target:"/query?timeout-ms=soon" narrow_count);
      (* context document routing *)
      let r =
        oneshot p ~meth:"POST" ~target:"/query?context=upd.xml"
          "count(//p/select-narrow::c)"
      in
      check_status "context" 200 r;
      Alcotest.(check string) "context answer" "1\n" r.Http.r_body)

let test_explain () =
  with_server (fun srv ->
      let p = Server.port srv in
      let r =
        oneshot p ~meth:"GET"
          ~target:("/explain?q=" ^ Http.url_encode narrow_count)
          ""
      in
      check_status "explain get" 200 r;
      Alcotest.(check bool)
        "mentions standoff-join" true
        (let body = r.Http.r_body in
         let rex = "standoff-join" in
         let n = String.length rex and m = String.length body in
         let rec scan i =
           i + n <= m && (String.sub body i n = rex || scan (i + 1))
         in
         scan 0);
      let r2 = oneshot p ~meth:"POST" ~target:"/explain" narrow_count in
      check_status "explain post" 200 r2;
      Alcotest.(check string) "same plan both ways" r.Http.r_body r2.Http.r_body;
      check_status "explain without query" 400
        (oneshot p ~meth:"GET" ~target:"/explain" ""))

let test_deadline_408_partial_trace () =
  (* timeout-ms=0 must fire at the first checkpoint and produce a 408
     whose body carries the partial trace, never partial output. *)
  with_server (fun srv ->
      let r =
        oneshot (Server.port srv) ~meth:"POST"
          ~target:"/query?timeout-ms=0&cache=off" narrow_count
      in
      check_status "deadline" 408 r;
      let contains needle hay =
        let n = String.length needle and m = String.length hay in
        let rec scan i =
          i + n <= m && (String.sub hay i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool)
        "error named" true
        (contains "deadline exceeded" r.Http.r_body);
      Alcotest.(check bool)
        "trace attached" true
        (contains "\"trace\"" r.Http.r_body))

(* ---------------- streaming ---------------- *)

let test_stream_byte_identical () =
  (* ?stream=1 switches the reply to chunked transfer-encoding whose
     reassembled bytes are exactly the buffered reply's body. *)
  with_server (fun srv ->
      let p = Server.port srv in
      let buffered = oneshot p ~meth:"POST" ~target:"/query" narrow_words in
      check_status "buffered" 200 buffered;
      let streamed =
        oneshot p ~meth:"POST" ~target:"/query?stream=1" narrow_words
      in
      check_status "streamed" 200 streamed;
      Alcotest.(check (option string))
        "streamed reply is chunked" (Some "chunked")
        (Http.response_header streamed "transfer-encoding");
      Alcotest.(check (option string))
        "marked as a stream" (Some "1")
        (Http.response_header streamed "x-standoff-stream");
      Alcotest.(check string) "bodies byte-identical" buffered.Http.r_body
        streamed.Http.r_body;
      (* Keep-alive survives a chunked reply: same connection, two
         streamed requests. *)
      let fd = connect p in
      let reader = Http.reader fd in
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          let r1 =
            request reader fd ~meth:"POST" ~target:"/query?stream=1"
              narrow_words
          in
          let r2 =
            request reader fd ~meth:"POST" ~target:"/query?stream=1"
              narrow_words
          in
          Alcotest.(check string) "keep-alive reuse" r1.Http.r_body
            r2.Http.r_body);
      (* An error before the first byte downgrades to a buffered error
         reply, not a broken chunk stream. *)
      let bad =
        oneshot p ~meth:"POST" ~target:"/query?stream=1" "count(((("
      in
      check_status "pre-stream error is a plain reply" 400 bad;
      Alcotest.(check (option string))
        "no chunking on the error path" None
        (Http.response_header bad "transfer-encoding"))

(* ---------------- bearer auth ---------------- *)

let test_auth_token () =
  let config = { default_test_config with auth_token = Some "sesame" } in
  with_server ~config (fun srv ->
      let p = Server.port srv in
      let r = oneshot p ~meth:"POST" ~target:"/query" narrow_count in
      check_status "no token" 401 r;
      Alcotest.(check bool)
        "challenge present" true
        (Http.response_header r "www-authenticate" <> None);
      let with_token tok =
        let fd = connect p in
        Fun.protect
          ~finally:(fun () -> close_noerr fd)
          (fun () ->
            request (Http.reader fd) fd
              ~headers:[ ("Authorization", "Bearer " ^ tok) ]
              ~meth:"POST" ~target:"/query" narrow_count)
      in
      check_status "wrong token" 401 (with_token "sesamee");
      check_status "prefix token" 401 (with_token "sesam");
      (* liveness stays open; the protected surface opens with the
         right token *)
      check_status "healthz unauthenticated" 200
        (oneshot p ~meth:"GET" ~target:"/healthz" "");
      let r = with_token "sesame" in
      check_status "right token" 200 r;
      Alcotest.(check string) "answer" "1\n" r.Http.r_body)

(* ---------------- readiness ---------------- *)

let test_readiness_split () =
  (* A deferred server accepts connections before its engine is
     installed: alive (200 on /healthz), not ready (503 on ?ready=1),
     engine endpoints 503 — then everything opens on install. *)
  let config = default_test_config in
  let server = Server.create_deferred ~config () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let p = Server.port server in
      check_status "alive while recovering" 200
        (oneshot p ~meth:"GET" ~target:"/healthz" "");
      let r = oneshot p ~meth:"GET" ~target:"/healthz?ready=1" "" in
      check_status "not ready while recovering" 503 r;
      let q = oneshot p ~meth:"POST" ~target:"/query" narrow_count in
      check_status "query parked during recovery" 503 q;
      Alcotest.(check bool)
        "retry-after present" true
        (Http.response_header q "retry-after" <> None);
      Alcotest.(check bool) "not ready" false (Server.ready server);
      let engine =
        Engine.create ~jobs:1 ~cache:Engine.Cache_off (fresh_collection ())
      in
      Server.install_engine server engine;
      Alcotest.(check bool) "ready after install" true (Server.ready server);
      check_status "ready probe opens" 200
        (oneshot p ~meth:"GET" ~target:"/healthz?ready=1" "");
      let r = oneshot p ~meth:"POST" ~target:"/query" narrow_count in
      check_status "query served after install" 200 r;
      Alcotest.(check string) "answer" "1\n" r.Http.r_body)

(* ---------------- query/update interleave ---------------- *)

let move_c_outside p =
  oneshot p ~meth:"POST"
    ~target:"/update?doc=upd.xml&pre=2&start=50&end=60" ""

(* Integer parameters are an optional '-' then ASCII digits.  Every
   lenient spelling below names a value a lenient parse would accept,
   so only the strict parser answers 400 instead of 200. *)
let test_strict_int_params () =
  with_server (fun srv ->
      let p = Server.port srv in
      let update params =
        oneshot p ~meth:"POST" ~target:("/update?doc=upd.xml&" ^ params) ""
      in
      List.iter
        (fun params -> check_status params 400 (update params))
        [
          "pre=0x2&start=50&end=60";
          "pre=2&start=5_0&end=60";
          "pre=2&start=50&end=+60";
          "pre=2&start=50&end=%2B60";
          "pre=0b10&start=50&end=60";
          "pre=2&start=0u50&end=60";
          "pre=2&start=%2050&end=60";
          "pre=2&start=-&end=60";
          "pre=99999999999999999999&start=50&end=60";
          "pre=2&start=50&end=99999999999999999999";
          "op=shift&from=0x0&by=1";
          "op=shift&from=0&by=+1";
          "op=shift&from=0&by=-0x1";
        ];
      check_status "jobs=0x2" 400
        (oneshot p ~meth:"POST" ~target:"/query?jobs=0x2" narrow_count);
      (* Plain decimals still work, and [by] stays signed. *)
      check_status "decimal set-region" 200 (update "pre=2&start=3&end=9");
      check_status "shift forward" 200 (update "op=shift&from=0&by=5");
      check_status "shift back" 200 (update "op=shift&from=0&by=-5"))

let test_update_then_query () =
  let engine =
    Engine.create ~jobs:1 ~cache:Engine.Cache_result (fresh_collection ())
  in
  with_server ~engine (fun srv ->
      let p = Server.port srv in
      let ask () = oneshot p ~meth:"POST" ~target:"/query" narrow_count in
      let r1 = ask () in
      check_status "first query" 200 r1;
      Alcotest.(check string) "c inside p" "1\n" r1.Http.r_body;
      (* Prime the result cache and prove the repeat is served from
         it... *)
      let r1' = ask () in
      Alcotest.(check string) "repeat identical" r1.Http.r_body r1'.Http.r_body;
      Alcotest.(check (option string))
        "repeat was a cache hit" (Some "hit")
        (Http.response_header r1' "x-standoff-cache");
      (* ...then update through the server and observe invalidation. *)
      let u = move_c_outside p in
      check_status "update" 200 u;
      let r2 = ask () in
      check_status "post-update query" 200 r2;
      Alcotest.(check string) "post-update answer" "0\n" r2.Http.r_body;
      check_status "unknown document" 404
        (oneshot p ~meth:"POST" ~target:"/update?doc=ghost.xml&pre=1&start=0&end=1" "");
      check_status "missing params" 400
        (oneshot p ~meth:"POST" ~target:"/update?doc=upd.xml" ""))

let test_constructing_query_cached () =
  (* A constructing query is an ordinary reader: under the result
     cache its repeat is a hit with the same bytes. *)
  let engine =
    Engine.create ~jobs:1 ~cache:Engine.Cache_result (fresh_collection ())
  in
  let q = "<ws>{doc(\"upd.xml\")//p/select-narrow::w}</ws>" in
  let expected =
    (Engine.run (Engine.create ~jobs:1 (fresh_collection ())) q)
      .Engine.serialized ^ "\n"
  in
  with_server ~engine (fun srv ->
      let p = Server.port srv in
      let ask () = oneshot p ~meth:"POST" ~target:"/query" q in
      let r1 = ask () in
      check_status "first query" 200 r1;
      Alcotest.(check string) "same bytes as a direct run" expected
        r1.Http.r_body;
      Alcotest.(check (option string))
        "first run evaluated" (Some "miss")
        (Http.response_header r1 "x-standoff-cache");
      let r2 = ask () in
      Alcotest.(check string) "repeat identical" r1.Http.r_body r2.Http.r_body;
      Alcotest.(check (option string))
        "repeat was a cache hit" (Some "hit")
        (Http.response_header r2 "x-standoff-cache"))

let test_ingest_endpoint () =
  let engine =
    Engine.create ~jobs:1 ~cache:Engine.Cache_off (fresh_collection ())
  in
  with_server ~engine (fun srv ->
      let p = Server.port srv in
      let contains needle hay =
        let n = String.length needle and m = String.length hay in
        let rec scan i =
          i + n <= m && (String.sub hay i n = needle || scan (i + 1))
        in
        scan 0
      in
      let frame name xml =
        Printf.sprintf "%s %d\n%s\n" name (String.length xml) xml
      in
      let body =
        frame "t1.xml" "<p>The <w>quick</w> <w>fox</w></p>"
        ^ frame "t2.xml" "<p><w>jumps</w></p>"
      in
      let r = oneshot p ~meth:"POST" ~target:"/ingest" body in
      check_status "bulk ingest" 200 r;
      Alcotest.(check bool) "both documents counted" true
        (contains "\"ingested\": 2" r.Http.r_body);
      let q =
        oneshot p ~meth:"POST" ~target:"/query"
          "count(doc(\"t1.xml\")//p/select-narrow::w)"
      in
      check_status "query an ingested document" 200 q;
      Alcotest.(check string) "converted extents answer containment" "2\n"
        q.Http.r_body;
      (* the extracted text rides along as <name>.blob *)
      Alcotest.(check bool) "blob stored" true
        (Collection.blob (Engine.collection engine) "t2.xml.blob" <> None);
      (* conflicts reject the whole batch atomically *)
      check_status "duplicate batch conflicts" 409
        (oneshot p ~meth:"POST" ~target:"/ingest" body);
      check_status "fresh batch after conflict still works" 200
        (oneshot p ~meth:"POST" ~target:"/ingest"
           (frame "t3.xml" "<p><w>over</w></p>"));
      (* ?name= ingests the raw body as one document, unconverted *)
      check_status "raw single-document ingest" 200
        (oneshot p ~meth:"POST" ~target:"/ingest?name=raw.xml&convert=none"
           region_doc_xml);
      let q2 =
        oneshot p ~meth:"POST" ~target:"/query"
          "count(doc(\"raw.xml\")//p/select-narrow::c)"
      in
      Alcotest.(check string) "raw ingest queryable" "1\n" q2.Http.r_body;
      check_status "malformed frame header" 400
        (oneshot p ~meth:"POST" ~target:"/ingest" "nonsense");
      check_status "empty body" 400 (oneshot p ~meth:"POST" ~target:"/ingest" "");
      check_status "unknown convert mode" 400
        (oneshot p ~meth:"POST" ~target:"/ingest?convert=wat" "x 1\ny");
      check_status "GET not allowed" 405
        (oneshot p ~meth:"GET" ~target:"/ingest" ""))

let test_concurrent_interleave () =
  (* Queries hammering from several threads while an update lands in
     the middle: every response is one of the two valid answers, and
     after the update only the post-update one. *)
  let engine =
    Engine.create ~jobs:1 ~cache:Engine.Cache_result (fresh_collection ())
  in
  let config = { default_test_config with workers = 4 } in
  with_server ~engine ~config (fun srv ->
      let p = Server.port srv in
      let errors = Atomic.make 0 in
      let updated = Atomic.make false in
      let bad_order = Atomic.make 0 in
      let client () =
        let fd = connect p in
        let reader = Http.reader fd in
        Fun.protect
          ~finally:(fun () -> close_noerr fd)
          (fun () ->
            for _ = 1 to 25 do
              let r =
                request reader fd ~meth:"POST" ~target:"/query" narrow_count
              in
              (match (r.Http.status, r.Http.r_body) with
              | 200, "1\n" ->
                  (* The pre-update answer is only valid before the
                     update response was observed. *)
                  if Atomic.get updated then Atomic.incr bad_order
              | 200, "0\n" -> ()
              | _ -> Atomic.incr errors);
              Thread.yield ()
            done)
      in
      let clients = List.init 4 (fun _ -> Thread.create client ()) in
      Thread.delay 0.05;
      let u = move_c_outside p in
      check_status "interleaved update" 200 u;
      Atomic.set updated true;
      List.iter Thread.join clients;
      Alcotest.(check int) "no failed responses" 0 (Atomic.get errors);
      Alcotest.(check int) "no stale post-update answers" 0
        (Atomic.get bad_order);
      let r = oneshot p ~meth:"POST" ~target:"/query" narrow_count in
      Alcotest.(check string) "settled answer" "0\n" r.Http.r_body)

let test_concurrent_mixed_jobs_identical () =
  (* Concurrent requests at every parallelism cap {1, 2, 4, 8} against
     an adaptive engine: all of them, interleaved on several worker
     domains, must answer the one byte-identical body.  The forced
     budget makes the caps real even on a single-core machine, and the
     final check pins the tentpole invariant: connection workers and
     query parallelism draw on one domain budget, so the worker set
     never exceeds it. *)
  let saved = Pool.domain_budget () in
  Pool.set_domain_budget 8;
  Fun.protect
    ~finally:(fun () ->
      Pool.park ();
      Pool.set_domain_budget saved)
    (fun () ->
      let engine =
        Engine.create ~jobs:0 ~cache:Engine.Cache_off (fresh_collection ())
      in
      let expected =
        (Engine.run engine narrow_words)
          .Engine.serialized
        ^ "\n"
      in
      let config = { default_test_config with workers = 3 } in
      with_server ~engine ~config (fun srv ->
          let p = Server.port srv in
          let caps = [| 1; 2; 4; 8 |] in
          let mismatches = Atomic.make 0 in
          let errors = Atomic.make 0 in
          let client c () =
            let fd = connect p in
            let reader = Http.reader fd in
            Fun.protect
              ~finally:(fun () -> close_noerr fd)
              (fun () ->
                for i = 0 to 19 do
                  let jobs = caps.((c + i) mod Array.length caps) in
                  let r =
                    request reader fd ~meth:"POST"
                      ~target:(Printf.sprintf "/query?jobs=%d" jobs)
                      narrow_words
                  in
                  if r.Http.status <> 200 then Atomic.incr errors
                  else if r.Http.r_body <> expected then
                    Atomic.incr mismatches
                done)
          in
          let clients = List.init 4 (fun c -> Thread.create (client c) ()) in
          List.iter Thread.join clients;
          Alcotest.(check int) "no failed responses" 0 (Atomic.get errors);
          Alcotest.(check int) "every cap byte-identical" 0
            (Atomic.get mismatches);
          Alcotest.(check bool) "pool workers within the shared budget" true
            (Pool.worker_count () <= Pool.domain_budget () - 1)))

(* ---------------- admission control ---------------- *)

let test_load_shed_503 () =
  (* One worker, queue of one: a connection pinning the worker plus a
     queued one exhaust admission; the third must be shed with 503 and
     Retry-After. *)
  let config =
    {
      default_test_config with
      workers = 1;
      queue_capacity = 1;
      socket_timeout_s = 10.0;
    }
  in
  with_server ~config (fun srv ->
      let p = Server.port srv in
      let pin = connect p in
      Thread.delay 0.2;
      (* worker now blocked reading [pin] *)
      let queued = connect p in
      Thread.delay 0.2;
      (* admission queue now holds [queued] *)
      Fun.protect
        ~finally:(fun () ->
          close_noerr pin;
          close_noerr queued)
        (fun () ->
          let shed = connect p in
          let resp =
            Fun.protect
              ~finally:(fun () -> close_noerr shed)
              (fun () -> Http.read_response (Http.reader shed))
          in
          check_status "shed" 503 resp;
          Alcotest.(check bool)
            "retry-after present" true
            (Http.response_header resp "retry-after" <> None);
          (* Freeing the worker lets the queued connection be served. *)
          close_noerr pin;
          let r =
            request (Http.reader queued) queued ~meth:"GET" ~target:"/healthz"
              ""
          in
          check_status "queued connection served after drain" 200 r))

(* ---------------- keep-alive ---------------- *)

let test_keep_alive_reuse_and_bound () =
  let config = { default_test_config with max_requests_per_connection = 2 } in
  with_server ~config (fun srv ->
      let fd = connect (Server.port srv) in
      let reader = Http.reader fd in
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          let r1 = request reader fd ~meth:"GET" ~target:"/healthz" "" in
          check_status "first on connection" 200 r1;
          Alcotest.(check (option string))
            "first keeps alive" (Some "keep-alive")
            (Http.response_header r1 "connection");
          let r2 = request reader fd ~meth:"GET" ~target:"/healthz" "" in
          check_status "second on same connection" 200 r2;
          Alcotest.(check (option string))
            "bound reached: connection closes" (Some "close")
            (Http.response_header r2 "connection");
          (* The server must actually close: the probe sees EOF, or a
             reset/broken pipe when the RST beats our write — either
             way, never a served response. *)
          Alcotest.(check bool) "closed after bound" true
            (match
               Http.write_request fd ~meth:"GET" ~target:"/healthz" "";
               Http.read_response (Http.reader fd)
             with
            | _ -> false
            | exception Http.Closed -> true
            | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> true)))

let test_connection_close_honored () =
  with_server (fun srv ->
      let fd = connect (Server.port srv) in
      let reader = Http.reader fd in
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          let r =
            request reader fd
              ~headers:[ ("Connection", "close") ]
              ~meth:"GET" ~target:"/healthz" ""
          in
          check_status "request" 200 r;
          Alcotest.(check (option string))
            "close echoed" (Some "close")
            (Http.response_header r "connection")))

(* ---------------- graceful shutdown ---------------- *)

let test_graceful_drain () =
  let engine = Engine.create ~jobs:1 (fresh_collection ()) in
  let config = { default_test_config with workers = 1 } in
  let server = Server.create ~config engine in
  Server.start server;
  let p = Server.port server in
  let fd = connect p in
  Fun.protect
    ~finally:(fun () ->
      close_noerr fd;
      Server.stop server)
    (fun () ->
      (* Half a request: the worker is now mid-read, i.e. in flight. *)
      let head = "POST /query HTTP/1.1\r\nContent-Length: " in
      ignore (Unix.write_substring fd head 0 (String.length head));
      Thread.delay 0.2;
      let stopper = Thread.create (fun () -> Server.stop server) () in
      Thread.delay 0.2;
      Alcotest.(check bool) "still draining" true (Server.running server);
      (* Finish the request during the drain: it must be answered. *)
      let rest =
        Printf.sprintf "%d\r\n\r\n%s" (String.length narrow_count) narrow_count
      in
      ignore (Unix.write_substring fd rest 0 (String.length rest));
      let resp = Http.read_response (Http.reader fd) in
      check_status "in-flight request answered during drain" 200 resp;
      Alcotest.(check string) "drained answer" "1\n" resp.Http.r_body;
      Alcotest.(check (option string))
        "drain says close" (Some "close")
        (Http.response_header resp "connection");
      Thread.join stopper;
      Alcotest.(check bool) "stopped" false (Server.running server);
      (* New connections are refused once stopped. *)
      Alcotest.(check bool)
        "listener gone" true
        (match connect p with
        | fd2 ->
            (* Accepted by a dead listener is impossible; a connect that
               sneaks in before the close still gets EOF. *)
            let got_eof =
              match Http.read_response (Http.reader fd2) with
              | exception Http.Closed -> true
              | exception Unix.Unix_error _ -> true
              | _ -> false
            in
            close_noerr fd2;
            got_eof
        | exception Unix.Unix_error _ -> true))

let test_stop_idempotent () =
  with_server (fun srv ->
      Server.stop srv;
      Server.stop srv;
      Alcotest.(check bool) "stopped" false (Server.running srv))

(* ---------------- engine regression: deadline during serialization - *)

let test_deadline_during_serialization () =
  (* Fuel deadlines fire on an exact checkpoint, making the failure
     point deterministic.  Serialization checkpoints once per result
     item, and those checkpoints are the last ones of a run — so the
     largest failing fuel value fails *during serialization*, and must
     raise cleanly rather than return partial output. *)
  (* Cache pinned off: a result-cache hit returns before the first
     checkpoint, which would defeat the fuel search (and does, when
     STANDOFF_CACHE=result is in the environment). *)
  let engine =
    Engine.create ~jobs:1 ~cache:Engine.Cache_off (fresh_collection ())
  in
  let expected =
    (Engine.run engine narrow_words)
      .Engine.serialized
  in
  Alcotest.(check bool)
    "several items to serialize" true
    (String.contains expected '\n');
  let run_with_fuel n trace =
    Engine.run engine ~deadline:(Timing.deadline_with_fuel n)
      ?trace narrow_words
  in
  (* Find the least fuel that lets the run finish. *)
  let rec least n =
    if n > 100_000 then Alcotest.fail "no fuel value finishes the query"
    else
      match run_with_fuel n None with
      | r -> (n, r)
      | exception Timing.Deadline_exceeded -> least (n + 1)
  in
  let n_min, full = least 0 in
  Alcotest.(check bool) "some checkpoints consumed" true (n_min > 0);
  Alcotest.(check string) "full run byte-identical" expected
    full.Engine.serialized;
  (* One checkpoint short: the deadline fires on the final
     serialization checkpoint. *)
  let trace = Trace.create () in
  (match run_with_fuel (n_min - 1) (Some trace) with
  | _ -> Alcotest.fail "expected Deadline_exceeded one checkpoint short"
  | exception Timing.Deadline_exceeded -> ());
  (* The partial trace is well-formed and shows serialization had
     started when the deadline hit. *)
  let root = Trace.root trace in
  Alcotest.(check bool) "trace fully closed" true (Trace.all_closed root);
  Alcotest.(check bool)
    "serialize span present" true
    (Trace.find_all (fun sp -> Trace.name sp = "serialize") root <> []);
  (* The engine is fully usable afterwards. *)
  let again =
    (Engine.run engine narrow_words)
      .Engine.serialized
  in
  Alcotest.(check string) "engine unharmed" expected again

(* ---------------- http unit bits ---------------- *)

let test_url_codec () =
  Alcotest.(check string)
    "decode" "a b/c=d&"
    (Http.url_decode "a+b%2Fc%3Dd%26");
  Alcotest.(check string)
    "roundtrip" "count(doc(\"x\")//a)"
    (Http.url_decode (Http.url_encode "count(doc(\"x\")//a)"));
  let path, params = Http.parse_target "/query?strategy=loop-lifted&jobs=4" in
  Alcotest.(check string) "path" "/query" path;
  Alcotest.(check (option string))
    "param" (Some "loop-lifted")
    (List.assoc_opt "strategy" params);
  Alcotest.(check (option string)) "param2" (Some "4")
    (List.assoc_opt "jobs" params);
  (* [+ -> space] is form encoding: it applies to query keys/values
     only, never to the path — a document named "a+b.xml" must stay
     routable. *)
  Alcotest.(check string) "path keeps +" "/docs/a+b.xml"
    (Http.path_decode "/docs/a+b.xml");
  Alcotest.(check string) "path percent-decodes" "/docs/a b%.xml"
    (Http.path_decode "/docs/a%20b%25.xml");
  let path, params = Http.parse_target "/docs/a+b.xml?q=x+y%2B" in
  Alcotest.(check string) "target path keeps +" "/docs/a+b.xml" path;
  Alcotest.(check (option string))
    "query still form-decodes" (Some "x y+")
    (List.assoc_opt "q" params)

let () =
  Alcotest.run "server"
    [
      ( "http",
        [
          Alcotest.test_case "malformed request line" `Quick
            test_malformed_request_line;
          Alcotest.test_case "malformed headers" `Quick test_malformed_headers;
          Alcotest.test_case "body cap 413" `Quick test_body_cap;
          Alcotest.test_case "routing + metrics + healthz" `Quick test_routing;
          Alcotest.test_case "url codec" `Quick test_url_codec;
        ] );
      ( "query",
        [
          Alcotest.test_case "bodies byte-identical across strategies" `Quick
            test_bodies_byte_identical_across_strategies;
          Alcotest.test_case "knobs (jobs, strategy, timeout, context)" `Quick
            test_query_knobs;
          Alcotest.test_case "explain endpoint" `Quick test_explain;
          Alcotest.test_case "deadline 408 with partial trace" `Quick
            test_deadline_408_partial_trace;
          Alcotest.test_case "?stream=1 chunked and byte-identical" `Quick
            test_stream_byte_identical;
          Alcotest.test_case "constructing query result-cached" `Quick
            test_constructing_query_cached;
        ] );
      ( "auth",
        [ Alcotest.test_case "bearer token gate" `Quick test_auth_token ] );
      ( "readiness",
        [
          Alcotest.test_case "liveness vs readiness during deferred boot"
            `Quick test_readiness_split;
        ] );
      ( "interleave",
        [
          Alcotest.test_case "bulk ingest over HTTP" `Quick
            test_ingest_endpoint;
          Alcotest.test_case "query-update-query over HTTP" `Quick
            test_update_then_query;
          Alcotest.test_case "strict integer parameters" `Quick
            test_strict_int_params;
          Alcotest.test_case "concurrent clients vs update" `Quick
            test_concurrent_interleave;
          Alcotest.test_case "concurrent mixed ?jobs= byte-identical" `Quick
            test_concurrent_mixed_jobs_identical;
        ] );
      ( "admission",
        [ Alcotest.test_case "load shed 503" `Quick test_load_shed_503 ] );
      ( "keep-alive",
        [
          Alcotest.test_case "reuse and per-connection bound" `Quick
            test_keep_alive_reuse_and_bound;
          Alcotest.test_case "connection: close honored" `Quick
            test_connection_close_honored;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "stop idempotent" `Quick test_stop_idempotent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deadline during serialization raises cleanly"
            `Quick test_deadline_during_serialization;
        ] );
    ]
