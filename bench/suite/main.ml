(* The served benchmark suite.

     main.exe run   [--seed N] [--seconds S] [--workload W]... [--json FILE]
     main.exe run   --workload W [--seed N] [--seconds S] --trace 0|1
     main.exe trace [--seed N] [--workload W]... [--json FILE]
     main.exe compare A.json[,A2.json...] B.json[,B2.json...] [--bench FILE]

   [run] spawns the real server per workload and prints the end-to-end
   metrics plus the per-layer ones read from /metrics; [trace] replays
   the first 500 reads of each workload in-process and prints the
   per-layer ones the span tree and outside timing give; [compare]
   applies the bounds of BENCHMARK.json to two sets of result files.
   [run --trace] is the form BENCHMARK.json's command speaks: one
   workload, the report on stderr, and a final stdout line holding the
   end-to-end metrics (--trace 0) or, after a traced replay too, the
   per-layer ones (--trace 1).  Common flags: --smoke (tiny scales,
   2 s windows, 50 traced reads, every oracle still on), --server PATH,
   --work-dir DIR (scratch data directories, default .bench_work),
   --label STR (recorded in the result, e.g. a commit). *)

let usage () =
  prerr_string
    "usage: main.exe (run | trace) [--seed N] [--seconds S] [--workload W]... \
     [--json FILE] [--smoke] [--server PATH] [--work-dir DIR] [--label STR]\n\
    \       main.exe run --workload W [--seed N] [--seconds S] --trace 0|1 \
     [--bench BENCHMARK.json]\n\
    \       main.exe compare A.json[,...] B.json[,...] [--bench BENCHMARK.json]\n";
  exit 2

let valued_flags =
  [ "--seed"; "--seconds"; "--workload"; "--json"; "--server"; "--work-dir"; "--label";
    "--trace"; "--bench" ]

(* Flags take one value each (and may repeat) except the boolean
   --smoke; everything else is positional. *)
let parse_args args =
  let rec go flags pos = function
    | "--smoke" :: rest -> go (("--smoke", "") :: flags) pos rest
    | f :: v :: rest when List.mem f valued_flags -> go ((f, v) :: flags) pos rest
    | f :: _ when String.starts_with ~prefix:"--" f -> usage ()
    | p :: rest -> go flags (p :: pos) rest
    | [] -> (List.rev flags, List.rev pos)
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags

let int_flag flags name default =
  match flag flags name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let workloads flags ~smoke =
  let names =
    List.filter_map (fun (f, v) -> if f = "--workload" then Some v else None) flags
  in
  let chosen =
    if names = [] then Workload.all
    else
      List.map
        (fun n ->
          match Workload.find n with
          | Some w -> w
          | None ->
              Printf.eprintf "unknown workload %S\n" n;
              exit 2)
        names
  in
  if smoke then List.map Workload.smoke chosen else chosen

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type outcome = {
  workload : Workload.t;
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
  why : string list;
}

let env_json ~label =
  Json.Obj
    [
      ("label", Json.Str label);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("domain_budget", Json.Num (float_of_int (Standoff_util.Pool.domain_budget ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os", Json.Str Sys.os_type);
    ]

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       metrics)

(* Non-200 replies, transport failures and wrong bytes over attempts. *)
let error_rate o = Stats.ratio (float_of_int o.failed) (float_of_int o.attempted)

let outcome_json o =
  Json.Obj
    [
      ("scale", Json.Num o.workload.Workload.scale);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("error_rate", Json.Num (error_rate o));
      ("metrics", metrics_json o.metrics);
    ]

let print_outcome oc o =
  Printf.fprintf oc "%s  (scale %g: %d operations, %d failed)\n" o.workload.Workload.name
    o.workload.Workload.scale o.attempted o.failed;
  Printf.fprintf oc "  %-34s %14.4f fraction\n" "error_rate" (error_rate o);
  List.iter
    (fun (name, v, unit) -> Printf.fprintf oc "  %-34s %14.4f %s\n" name v unit)
    o.metrics;
  List.iter (fun w -> Printf.fprintf oc "  FAILED %s\n" w) o.why;
  flush oc

let default_server () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; ".."; "bin"; "standoff_server.exe" ]

(* A private scratch directory under --work-dir, removed (after every
   server is reaped) however the run ends. *)
let with_work_dir flags f =
  let root = Option.value ~default:".bench_work" (flag flags "--work-dir") in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Served.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Served.reap_all ();
      Served.rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let server_path flags =
  let server = Option.value ~default:(default_server ()) (flag flags "--server") in
  if not (Sys.file_exists server) then failwith (server ^ " not found: build bin/ first");
  server

let write_json ~file ~command ~flags ~seed outcomes =
  let doc =
    Json.Obj
      [
        ("suite", Json.Str "bench/suite");
        ("command", Json.Str command);
        ("seed", Json.Num (float_of_int seed));
        ("smoke", Json.Bool (flag flags "--smoke" <> None));
        ("env", env_json ~label:(Option.value ~default:"" (flag flags "--label")));
        ( "workloads",
          Json.Obj
            (List.map (fun o -> (o.workload.Workload.name, outcome_json o)) outcomes) );
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc

let load_bench flags =
  Json.of_file (Option.value ~default:"BENCHMARK.json" (flag flags "--bench"))

(* The contract's last line: every metric BENCHMARK.json lists for the
   mode, in its order and with its unit.  A per-layer metric a workload
   has no use for (update latency where nothing is written) reads 0; an
   end-to-end one must be measured. *)
let print_contract ~bench ~traced o =
  let wanted =
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
        | _ -> None)
      (Json.to_list
         (Option.value ~default:Json.Null
            (Json.member (if traced then "per_layer" else "end_to_end") bench)))
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) o.metrics with
        | Some (_, v, _) -> (name, v, unit)
        | None when traced -> (name, 0.0, unit)
        | None -> failwith ("metric not measured: " ^ name))
      wanted
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", metrics_json metrics);
          ]))

let suite command args =
  let flags, pos = parse_args args in
  if pos <> [] then usage ();
  let smoke = flag flags "--smoke" <> None in
  let seed = int_flag flags "--seed" 7 in
  let seconds = float_of_int (int_flag flags "--seconds" (if smoke then 2 else 30)) in
  let requests = if smoke then 50 else 500 in
  let ws = workloads flags ~smoke in
  (* [run --trace 0|1]: one workload, the report on stderr and the
     contract's line last on stdout. *)
  let contract =
    match flag flags "--trace" with
    | None -> None
    | Some (("0" | "1") as t) when command = "run" && List.length ws = 1 ->
        Some (t = "1", load_bench flags)
    | Some _ -> usage ()
  in
  let traced = match contract with Some (t, _) -> t | None -> false in
  let report = if contract = None then stdout else stderr in
  let outcomes =
    with_work_dir flags (fun work_dir ->
        List.map
          (fun w ->
            let input = Input.make ~scale:w.Workload.scale ~seed in
            let replay () = Traced.run ~work_dir ~seed ~requests w input in
            let o =
              if command = "run" then
                let r =
                  Served.run ~server:(server_path flags) ~work_dir ~seed ~seconds w input
                in
                {
                  workload = w;
                  metrics =
                    r.Served.e2e @ r.Served.layers @ if traced then replay () else [];
                  attempted = r.Served.attempted;
                  failed = r.Served.failed;
                  why = r.Served.why;
                }
              else
                { workload = w; metrics = replay (); attempted = requests; failed = 0; why = [] }
            in
            print_outcome report o;
            o)
          ws)
  in
  Option.iter
    (fun file -> write_json ~file ~command ~flags ~seed outcomes)
    (flag flags "--json");
  Option.iter (fun (traced, bench) -> print_contract ~bench ~traced (List.hd outcomes)) contract;
  if List.exists (fun o -> o.failed > 0) outcomes then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

(* (workload, metric) -> values, over a comma-separated list of result
   files; each side is summarized by its median. *)
let load_side spec =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun file ->
      let j = Json.of_file file in
      match Json.member "workloads" j with
      | Some (Json.Obj ws) ->
          List.iter
            (fun (wname, wj) ->
              match Json.member "metrics" wj with
              | Some (Json.Obj ms) ->
                  List.iter
                    (fun (mname, mj) ->
                      match Option.bind (Json.member "value" mj) Json.to_num_opt with
                      | Some v ->
                          let key = (wname, mname) in
                          Hashtbl.replace tbl key
                            (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                      | None -> ())
                    ms
              | _ -> ())
            ws
      | _ -> failwith (file ^ ": not a bench/suite result file"))
    (String.split_on_char ',' spec);
  tbl

let compare_cmd args =
  let flags, pos = parse_args args in
  let a, b = match pos with [ a; b ] -> (a, b) | _ -> usage () in
  let bench = load_bench flags in
  let bounds =
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
        | Some (Json.Str n), Some (Json.Str better), Some (Json.Num bound) ->
            Some (n, (better, bound))
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" bench)))
  in
  let sa = load_side a and sb = load_side b in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem sb k then k :: acc else acc) sa []
    |> List.sort compare
  in
  let worse = ref 0 in
  Printf.printf "%-11s %-34s %14s %14s %9s  %s\n" "workload" "metric" "A (median)"
    "B (median)" "change" "verdict";
  List.iter
    (fun ((wname, mname) as k) ->
      let va = Stats.median (Hashtbl.find sa k) in
      let vb = Stats.median (Hashtbl.find sb k) in
      let change = Stats.ratio (vb -. va) (Float.abs va) in
      let verdict =
        match List.assoc_opt mname bounds with
        | None -> "(per-layer, no bound)"
        | Some (better, bound) ->
            let gain = if better = "lower" then -.change else change in
            if gain < -.bound then begin
              incr worse;
              "WORSE"
            end
            else if gain > bound then "better"
            else "within bound"
      in
      Printf.printf "%-11s %-34s %14.4f %14.4f %+8.1f%%  %s\n" wname mname va vb
        (100.0 *. change) verdict)
    keys;
  Printf.printf "%d (workload, metric) pair(s) worse than their bound\n" !worse;
  if !worse > 0 then exit 1

let () =
  (* A signal ends the run through [exit], so every spawned server is
     reaped by the exit handlers. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  try
    match List.tl (Array.to_list Sys.argv) with
    | ("run" | "trace") as command :: rest -> suite command rest
    | "compare" :: rest -> compare_cmd rest
    | _ -> usage ()
  with
  | Failure msg | Invalid_argument msg | Sys_error msg | Json.Parse_error msg ->
      prerr_endline ("bench/suite: " ^ msg);
      exit 1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "bench/suite: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 1
