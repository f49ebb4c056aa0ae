(* Tests for the engine settings ([Engine.Options]): the environment
   reader, and one table that feeds each spelling of each setting
   through every source that carries it — the command-line term shared
   by standoff-cli and standoff-server, the environment, and the HTTP
   server's query parameters — and requires the same value from all of
   them, or a rejection from all of them. *)

module Engine = Standoff_xquery.Engine
module Options = Engine.Options
module Config = Standoff.Config
module Http = Standoff_server.Http
module Server = Standoff_server.Server
module Flags = Standoff_flags.Flags

(* [Unix.putenv] cannot remove a variable; "" is what [of_env] reads as
   unset, and restoring the saved value keeps an outer STANDOFF_* (a CI
   step's) in force for the tests that follow. *)
let with_env var value f =
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var saved) f

(* ---------------- Options.of_env ---------------- *)

(* Per variable: a valid spelling and the field it sets, a malformed
   spelling, and the default an empty value falls back to. *)
let env_cases =
  [
    ( "STANDOFF_JOBS", "3", "abc",
      (fun o -> string_of_int o.Options.jobs), "3", "0" );
    ( "STANDOFF_CACHE", "plan", "bogus",
      (fun o -> Options.cache_to_string o.Options.cache), "plan", "off" );
    ( "STANDOFF_CACHE_MB", "8", "abc",
      (fun o -> string_of_int o.Options.cache_bytes),
      string_of_int (8 * 1024 * 1024),
      string_of_int (64 * 1024 * 1024) );
    ( "STANDOFF_DATAGUIDE", "off", "bogus",
      (fun o -> string_of_bool o.Options.dataguide), "false", "true" );
    ( "STANDOFF_SLOW_MS", "12.5", "abc",
      (fun o -> Option.fold ~none:"none" ~some:string_of_float o.Options.slow_ms),
      "12.5", "none" );
  ]

let test_of_env () =
  List.iter
    (fun (var, valid, malformed, get, expect, default) ->
      with_env var valid (fun () ->
          Alcotest.(check string) (var ^ " valid") expect
            (get (Options.of_env ())));
      with_env var "" (fun () ->
          Alcotest.(check string) (var ^ " empty is unset") default
            (get (Options.of_env ())));
      with_env var malformed (fun () ->
          match Options.of_env () with
          | _ -> Alcotest.failf "%s=%S accepted" var malformed
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s malformed: message %S names it" var msg)
                true
                (String.starts_with ~prefix:(var ^ ":") msg)))
    env_cases

(* Other malformed values the old readers ignored silently. *)
let test_of_env_rejects () =
  List.iter
    (fun (var, v) ->
      with_env var v (fun () ->
          match Options.of_env () with
          | _ -> Alcotest.failf "%s=%S accepted" var v
          | exception Invalid_argument _ -> ()))
    [
      ("STANDOFF_JOBS", "0x4");
      ("STANDOFF_JOBS", " 4");
      ("STANDOFF_CACHE_MB", "0");
      ("STANDOFF_CACHE_MB", "-8");
      ("STANDOFF_SLOW_MS", "-1");
      ("STANDOFF_SLOW_MS", "nan");
      ("STANDOFF_DATAGUIDE", "2");
    ]

(* ---------------- one spelling, every source ---------------- *)

type field = {
  name : string;
  flag : string option;  (** long flag of [Flags.engine_options] *)
  env : string option;
  http : string option;  (** [/query] parameter *)
  of_options : Options.t -> string;
  of_http : Server.query_settings -> string;
  http_view : string -> string;
      (** what of an options value the HTTP parameter can express *)
  spellings : string list;
}

let opt_string f = function None -> "none" | Some v -> f v

let fields =
  [
    {
      name = "strategy";
      flag = Some "--strategy";
      env = None;
      http = Some "strategy";
      of_options =
        (fun o -> opt_string Config.strategy_to_string o.Options.strategy);
      of_http =
        (fun q -> opt_string Config.strategy_to_string q.Server.q_strategy);
      http_view = Fun.id;
      spellings =
        [ "loop-lifted"; "basic"; "udf-cand"; "udf-nocand"; "Loop-Lifted";
          " basic"; "auto"; "bogus"; "" ];
    };
    {
      name = "jobs";
      flag = Some "--jobs";
      env = Some "STANDOFF_JOBS";
      http = Some "jobs";
      of_options = (fun o -> string_of_int o.Options.jobs);
      of_http = (fun q -> opt_string string_of_int q.Server.q_jobs);
      http_view = Fun.id;
      spellings =
        [ "0"; "1"; "4"; "007"; "-1"; "abc"; "0x4"; "1_0"; "+5"; " 2"; "1.5";
          "99999999999999999999"; "" ];
    };
    {
      name = "cache";
      flag = Some "--cache";
      env = Some "STANDOFF_CACHE";
      http = Some "cache";
      of_options = (fun o -> Options.cache_to_string o.Options.cache);
      of_http = (fun q -> if q.Server.q_use_cache then "on" else "off");
      (* Documented exception: per request the cache is an opt-out. *)
      http_view = (fun mode -> if mode = "off" then "off" else "on");
      spellings =
        [ "off"; "none"; "plan"; "result"; "on"; "1"; "0"; "true"; "no";
          "RESULT"; " plan "; "bogus"; "" ];
    };
    {
      name = "dataguide";
      flag = Some "--dataguide";
      env = Some "STANDOFF_DATAGUIDE";
      http = Some "dataguide";
      of_options = (fun o -> string_of_bool o.Options.dataguide);
      of_http = (fun q -> opt_string string_of_bool q.Server.q_dataguide);
      http_view = Fun.id;
      spellings =
        [ "on"; "off"; "true"; "false"; "1"; "0"; "yes"; "no"; "OFF"; " on ";
          "sideways"; "2"; "" ];
    };
    {
      name = "slow-ms";
      flag = Some "--slow-ms";
      env = Some "STANDOFF_SLOW_MS";
      http = None;
      of_options = (fun o -> opt_string string_of_float o.Options.slow_ms);
      of_http = (fun _ -> assert false);
      http_view = Fun.id;
      spellings =
        [ "0"; "250"; "12.5"; "1e3"; " 5 "; "-1"; "nan"; "inf"; "abc"; "" ];
    };
  ]

let null_formatter = Format.make_formatter (fun _ _ _ -> ()) ignore

let via_flag flag v of_options =
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") Flags.engine_options in
  match
    Cmdliner.Cmd.eval_value ~err:null_formatter ~help:null_formatter
      ~argv:[| "t"; flag ^ "=" ^ v |] cmd
  with
  | Ok (`Ok o) -> Some (of_options o)
  | Ok (`Help | `Version) | Error _ -> None

let via_env var v of_options =
  with_env var v (fun () ->
      match Options.of_env () with
      | o -> Some (of_options o)
      | exception Invalid_argument _ -> None)

let via_http name v of_http =
  let target = Printf.sprintf "/query?%s=%s" name (Http.url_encode v) in
  let path, query = Http.parse_target target in
  let req =
    { Http.meth = "POST"; target; path; query; version = "HTTP/1.1";
      headers = []; body = "" }
  in
  match Server.query_settings req with
  | q -> Some (of_http q)
  | exception Http.Bad_request _ -> None

let test_cross_source () =
  let show = function None -> "rejected" | Some v -> v in
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          let label source = Printf.sprintf "%s %S via %s" f.name v source in
          let flag = Option.map (fun fl -> via_flag fl v f.of_options) f.flag in
          (* Documented exception: an empty variable is unset. *)
          let env =
            match f.env with
            | Some var when v <> "" -> Some (via_env var v f.of_options)
            | _ -> None
          in
          let http = Option.map (fun p -> via_http p v f.of_http) f.http in
          (match (flag, env) with
          | Some a, Some b ->
              Alcotest.(check string) (label "flag and env") (show a) (show b)
          | _ -> ());
          match (flag, http) with
          | Some a, Some b ->
              Alcotest.(check string) (label "flag and HTTP")
                (show (Option.map f.http_view a))
                (show b)
          | _ -> ())
        f.spellings)
    fields

(* Flags shared by both binaries override the environment field by
   field; a malformed environment fails the command line itself. *)
let test_flags_over_env () =
  let eval argv =
    Cmdliner.Cmd.eval_value ~err:null_formatter ~help:null_formatter ~argv
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") Flags.engine_options)
  in
  with_env "STANDOFF_JOBS" "3" (fun () ->
      with_env "STANDOFF_DATAGUIDE" "off" (fun () ->
          match eval [| "t"; "--jobs=2" |] with
          | Ok (`Ok o) ->
              Alcotest.(check int) "flag wins" 2 o.Options.jobs;
              Alcotest.(check bool) "env kept" false o.Options.dataguide
          | _ -> Alcotest.fail "valid command line rejected"));
  with_env "STANDOFF_SLOW_MS" "abc" (fun () ->
      match eval [| "t" |] with
      | Error `Term -> ()
      | _ -> Alcotest.fail "malformed STANDOFF_SLOW_MS accepted")

(* A bad strategy is reported with the accepted spellings, not the
   name of the parser: by the parser itself, and so by the shared
   [-s]/[--strategy] flag.  The HTTP parameter keeps its own
   [malformed strategy="…"] body. *)
let test_bad_strategy_message () =
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  let names_spellings source msg =
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s message %S mentions %S" source msg needle)
          true (contains needle msg))
      [ "\"basic-merge\""; "udf-nocand"; "udf-cand"; "basic"; "loop-lifted" ];
    Alcotest.(check bool)
      (Printf.sprintf "%s message %S names no internal function" source msg)
      false
      (contains "strategy_of_string" msg)
  in
  (match Config.strategy_of_string "basic-merge" with
  | _ -> Alcotest.fail "basic-merge accepted"
  | exception Invalid_argument msg -> names_spellings "parser" msg);
  let buf = Buffer.create 128 in
  let err = Format.formatter_of_buffer buf in
  (match
     Cmdliner.Cmd.eval_value ~err ~help:null_formatter
       ~argv:[| "t"; "-s"; "basic-merge" |]
       (Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") Flags.engine_options)
   with
  | Error `Parse -> ()
  | _ -> Alcotest.fail "-s basic-merge accepted");
  Format.pp_print_flush err ();
  names_spellings "flag" (Buffer.contents buf);
  let target = "/query?strategy=basic-merge" in
  let path, query = Http.parse_target target in
  match
    Server.query_settings
      { Http.meth = "POST"; target; path; query; version = "HTTP/1.1";
        headers = []; body = "" }
  with
  | _ -> Alcotest.fail "?strategy=basic-merge accepted"
  | exception Http.Bad_request msg ->
      Alcotest.(check string) "HTTP body unchanged"
        "malformed strategy=\"basic-merge\"" msg

let () =
  Alcotest.run "options"
    [
      ( "env",
        [
          Alcotest.test_case "of_env: valid, empty, malformed" `Quick
            test_of_env;
          Alcotest.test_case "of_env rejects what it once ignored" `Quick
            test_of_env_rejects;
        ] );
      ( "sources",
        [
          Alcotest.test_case "flag, env and HTTP agree on every spelling"
            `Quick test_cross_source;
          Alcotest.test_case "flags override env; bad env fails" `Quick
            test_flags_over_env;
          Alcotest.test_case "a bad strategy lists the accepted spellings"
            `Quick test_bad_strategy_message;
        ] );
    ]
