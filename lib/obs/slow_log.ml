(* The slow-query log: queries slower than a threshold are recorded in
   a bounded in-memory ring (newest first) and counted; an optional
   sink receives each entry as it lands (the CLI points it at stderr).

   The threshold itself is an engine setting ([Engine.Options.slow_ms]);
   this module only stores what the engine decides to record. *)

type entry = {
  e_at : float;  (** wall-clock time the query finished *)
  e_query : string;
  e_seconds : float;
  e_strategy : string;
  e_jobs : int;
  e_summary : string;  (** trace digest, "" when tracing was off *)
}

let capacity = 128
let lock = Mutex.create ()
let entries : entry list ref = ref [] (* newest first, bounded *)
let sink : (entry -> unit) option ref = ref None

let slow_total =
  Metrics.counter "standoff_slow_queries_total"
    ~help:"Queries that exceeded the slow-query threshold"

let set_sink f = sink := f

let record entry =
  Metrics.incr slow_total;
  Mutex.lock lock;
  let es = entry :: !entries in
  entries :=
    (if List.length es > capacity then List.filteri (fun i _ -> i < capacity) es
     else es);
  let s = !sink in
  Mutex.unlock lock;
  match s with Some f -> f entry | None -> ()

let recent () =
  Mutex.lock lock;
  let es = !entries in
  Mutex.unlock lock;
  es

let clear () =
  Mutex.lock lock;
  entries := [];
  Mutex.unlock lock

(* JSON rendering of the ring, newest first — the HTTP server's
   [GET /slow] endpoint serves this verbatim. *)
let to_json () =
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"at\": %.6f, \"seconds\": %.6f, \"strategy\": \"%s\", \
            \"jobs\": %d, \"query\": \"%s\", \"summary\": \"%s\"}"
           e.e_at e.e_seconds
           (Metrics.json_escape e.e_strategy)
           e.e_jobs
           (Metrics.json_escape e.e_query)
           (Metrics.json_escape e.e_summary)))
    (recent ());
  Buffer.add_char b ']';
  Buffer.contents b

let entry_to_string e =
  Printf.sprintf "slow-query %.3fms strategy=%s jobs=%d%s: %s"
    (e.e_seconds *. 1e3) e.e_strategy e.e_jobs
    (if e.e_summary = "" then "" else " [" ^ e.e_summary ^ "]")
    e.e_query
