(** dsolve — liquid type inference for NanoML programs.

    Usage: [dsolve [-q QUALFILE] [-Q 'qualif ...'] [--lint] [--stats]
    FILE.ml]

    Verifies the given NanoML program (array-bounds safety and
    assertions), printing the inferred refinement types of its top-level
    bindings and any failed obligations.  With [--lint], additionally
    runs the semantic-lint pass (unreachable branches, trivial
    conditions, unused/shadowed bindings, dead qualifiers) and prints
    its diagnostics; [--warn-error] makes lint warnings fail the run,
    and [--format json] emits the whole report as JSON.  [--cache DIR]
    persists verification results on disk so an unchanged program is
    re-verified for the cost of a digest.  [--explain] explains each
    failed obligation (minimal core, blame path, witness, repair hint;
    [--explain-limit N] caps how many).  [--gradual] turns unrefuted
    failing obligations into residual runtime casts (verdict SAFE /
    SAFE_MODULO n / UNSAFE); with [--run] the program executes with the
    casts armed, reporting which residuals held or failed dynamically.
    Exits 0 iff the program is proved safe (and lint-clean under
    [--warn-error]; under [--gradual --run], also no cast failed).

    Server mode: [dsolve --serve SOCK] starts a resident verification
    daemon on a Unix-domain socket ([--jobs N] sizes its pool of solve
    workers); [dsolve --connect SOCK FILE...] verifies files through it
    ([--server-stats] and [--server-shutdown] query and stop a running
    daemon). *)

open Cmdliner
module Pipeline = Liquid_driver.Pipeline
module Json = Liquid_analysis.Json

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let print_stats (s : Pipeline.stats) =
  Fmt.pr
    "stats: lines=%d kvars=%d wf=%d sub=%d quals=%d measures=%d \
     measure-axioms=%d candidates=%d collapsed=%d checks=%d \
     smt-queries=%d cache-hits=%d lint-queries=%d explain-queries=%d \
     diagnostics=%d partitions=%d critical-path=%d pcache-lookups=%d \
     pcache-hits=%d punit-hits=%d punit-misses=%d time=%.3fs@."
    s.Pipeline.source_lines s.n_kvars s.n_wf_constraints s.n_sub_constraints
    s.n_qualifiers s.n_measures s.n_measure_axioms s.n_initial_candidates
    s.n_alpha_collapsed s.n_implication_checks
    s.n_smt_queries s.n_smt_cache_hits s.n_lint_smt_queries
    s.n_explain_smt_queries s.n_diagnostics s.n_partitions s.critical_path
    s.n_pcache_lookups s.n_pcache_hits s.n_punit_hits s.n_punit_misses
    s.elapsed;
  Fmt.pr "gradual: residuals=%d@." s.n_residuals;
  Fmt.pr "phases:%a@."
    Fmt.(list ~sep:nop (fun ppf (name, t) -> Fmt.pf ppf " %s=%.3fs" name t))
    s.phases

(* Exit codes, everywhere: 0 safe, 1 unsafe or lint failure, 2 errors. *)
let code_of_report ~warn_error (report : Pipeline.report) =
  let lint_failed =
    warn_error && Liquid_analysis.Lint.warnings report.Pipeline.lints <> []
  in
  if report.Pipeline.safe && not lint_failed then 0 else 1

(* ------------------------------------------------------------------ *)
(* One-shot mode                                                       *)

let run_oneshot file ~quals ~specfile ~show_stats ~execute ~lint ~warn_error
    ~format ~cache_dir ~explain ~explain_limit ~gradual =
  let specs =
    match specfile with
    | None -> []
    | Some path -> Liquid_infer.Spec.parse_string (read_file path)
  in
  let options =
    {
      Pipeline.default with
      Pipeline.quals;
      specs;
      lint;
      cache_dir;
      explain;
      explain_limit;
      gradual;
    }
  in
  let report = Pipeline.verify_file ~options file in
  (match format with
  | `Json -> Fmt.pr "%a@." Json.pp (Pipeline.json_of_report ~file report)
  | `Text ->
      Fmt.pr "%a@." Pipeline.pp_report report;
      if show_stats then print_stats report.Pipeline.stats);
  let run_code = ref 0 in
  if execute && format = `Text then begin
    Fmt.pr "@.--- running %s ---@." file;
    let prog = Liquid_lang.Parser.program_of_file file in
    if gradual && report.Pipeline.residuals <> [] then begin
      (* Residual casts armed: the interpreter credits every runtime
         safety check landing in a residual's span to that cast, and a
         failed armed assertion is absorbed into the cast report instead
         of halting execution. *)
      let rr =
        Liquid_gradual.Gradual.run_casts ~quiet:false
          report.Pipeline.residuals prog
      in
      Fmt.pr "%a@." Liquid_gradual.Gradual.pp_run_report rr;
      let failed =
        List.exists
          (fun (_, st) ->
            match st with Liquid_gradual.Gradual.Failed _ -> true | _ -> false)
          rr.Liquid_gradual.Gradual.rr_casts
      in
      if failed || not rr.Liquid_gradual.Gradual.rr_finished then run_code := 1
    end
    else
      match Liquid_eval.Eval.run_program ~quiet:false prog with
      | env -> (
          match Liquid_common.Ident.Map.find_opt "main" env with
          | Some v -> Fmt.pr "main = %a@." Liquid_eval.Eval.pp_value v
          | None -> ())
      | exception Liquid_eval.Eval.Bounds_violation msg ->
          Fmt.pr "%a@." Liquid_analysis.Diagnostic.pp
            (Liquid_analysis.Diagnostic.make
               Liquid_analysis.Diagnostic.Runtime_failure Liquid_common.Loc.dummy
               (Fmt.str "runtime bounds violation: %s" msg))
      | exception Liquid_eval.Eval.Assertion_failure loc ->
          (* Span-carrying diagnostic, same machinery as the static ones:
             scripts can match on the R001 code and the structured loc. *)
          Fmt.pr "%a@." Liquid_analysis.Diagnostic.pp
            (Liquid_analysis.Diagnostic.make
               Liquid_analysis.Diagnostic.Runtime_failure loc
               "assertion failed at runtime")
  end;
  max (code_of_report ~warn_error report) !run_code

(* ------------------------------------------------------------------ *)
(* Client mode                                                         *)

let run_client sock files ~qual_text ~no_defaults ~list_quals ~spec_text
    ~show_stats ~lint ~warn_error ~format ~explain ~explain_limit ~gradual
    ~server_stats ~server_shutdown =
  Liquid_server.Client.with_connection sock (fun c ->
      let code = ref 0 in
      if files <> [] then begin
        let batch =
          List.map
            (fun file ->
              Liquid_server.Protocol.request ~qual_text
                ~use_defaults:(not no_defaults) ~list_quals
                ~spec_text ~lint:(lint || warn_error) ~explain
                ~explain_limit ~gradual ~name:file
                (read_file file))
            files
        in
        let replies = Liquid_server.Client.verify c batch in
        List.iter2
          (fun file reply ->
            match reply with
            | Liquid_server.Protocol.Verified report -> (
                code := max !code (code_of_report ~warn_error report);
                match format with
                | `Json ->
                    Fmt.pr "%a@." Json.pp (Pipeline.json_of_report ~file report)
                | `Text ->
                    if List.length files > 1 then Fmt.pr "=== %s ===@." file;
                    Fmt.pr "%a@." Pipeline.pp_report report;
                    if show_stats then print_stats report.Pipeline.stats)
            | Liquid_server.Protocol.Rejected e -> (
                code := 2;
                match format with
                | `Json ->
                    Fmt.pr "%a@." Json.pp
                      (Json.Obj
                         [
                           ("file", Json.String file);
                           ( "error",
                             Json.Obj
                               [
                                 ("code", Json.String e.ve_code);
                                 ("message", Json.String e.ve_message);
                               ] );
                         ])
                | `Text -> Fmt.epr "%s: [%s] %s@." file e.ve_code e.ve_message))
          files replies
      end;
      if server_stats then begin
        let s = Liquid_server.Client.stats c in
        Fmt.pr
          "server: requests=%d programs=%d mem-hits=%d disk-hits=%d cold=%d \
           coalesced=%d shed=%d failures=%d connections=%d uptime=%.1fs@."
          s.sv_requests s.sv_programs s.sv_mem_hits s.sv_disk_hits s.sv_cold
          s.sv_coalesced s.sv_shed s.sv_failures s.sv_connections s.sv_uptime;
        match s.sv_cache with
        | None -> Fmt.pr "server cache: disabled@."
        | Some cs -> Fmt.pr "server cache: %a@." Liquid_cache.Store.pp_stats cs
      end;
      if server_shutdown then Liquid_server.Client.shutdown c;
      !code)

(* ------------------------------------------------------------------ *)

let run files qualfile inline_quals no_defaults list_quals specfile show_stats
    execute lint warn_error format jobs cache_dir explain explain_limit gradual
    serve connect request_timeout max_inflight client_queue idle_timeout
    server_stats server_shutdown =
  let qual_text =
    String.concat "\n"
      ((match qualfile with None -> [] | Some path -> [ read_file path ])
      @ inline_quals)
  in
  let request_timeout =
    if request_timeout <= 0.0 then None else Some request_timeout
  in
  try
    match (serve, connect) with
    | Some _, Some _ ->
        Fmt.epr "error: --serve and --connect are mutually exclusive@.";
        2
    | Some sock, None ->
        if files <> [] then begin
          Fmt.epr "error: --serve takes no FILE arguments@.";
          2
        end
        else begin
          Liquid_server.Server.serve
            {
              Liquid_server.Server.sock;
              cache_dir;
              jobs;
              request_timeout;
              quiet = false;
              max_inflight;
              client_queue;
              idle_timeout =
                (if idle_timeout <= 0.0 then None else Some idle_timeout);
            };
          0
        end
    | None, Some sock ->
        if files = [] && (not server_stats) && not server_shutdown then begin
          Fmt.epr "error: --connect needs FILE arguments (or --server-stats / \
                   --server-shutdown)@.";
          2
        end
        else begin
          let spec_text =
            match specfile with None -> "" | Some path -> read_file path
          in
          run_client sock files ~qual_text ~no_defaults ~list_quals ~spec_text
            ~show_stats ~lint ~warn_error ~format ~explain ~explain_limit
            ~gradual ~server_stats ~server_shutdown
        end
    | None, None -> (
        match files with
        | [ file ] ->
            let quals =
              let base =
                if no_defaults then [] else Liquid_infer.Qualifier.defaults
              in
              let base =
                if list_quals then
                  base @ Liquid_infer.Qualifier.list_defaults
                else base
              in
              base @ Liquid_infer.Qualifier.parse_string qual_text
            in
            run_oneshot file ~quals ~specfile ~show_stats ~execute
              ~lint:(lint || warn_error) ~warn_error ~format ~cache_dir
              ~explain ~explain_limit ~gradual
        | [] ->
            Fmt.epr "error: a FILE argument is required@.";
            2
        | _ ->
            Fmt.epr
              "error: multiple FILE arguments need --connect (server mode)@.";
            2)
  with
  | Liquid_driver.Pipeline.Source_error (msg, loc) ->
      Fmt.epr "%a: %s@." Liquid_common.Loc.pp loc msg;
      2
  | Liquid_infer.Qualifier.Parse_error msg ->
      Fmt.epr "qualifier error: %s@." msg;
      2
  | Liquid_infer.Spec.Error msg ->
      Fmt.epr "specification error: %s@." msg;
      2
  | Failure msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Unix.Unix_error (err, _, _) ->
      Fmt.epr "error: %s@." (Unix.error_message err);
      2
  | Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      2

let files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "NanoML source file (exactly one, except under $(b,--connect) \
           which accepts several)")

let qualfile_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "q"; "qualifiers" ] ~docv:"QUALFILE"
        ~doc:"File of additional qualifier declarations")

let inline_quals_arg =
  Arg.(
    value & opt_all string []
    & info [ "Q" ] ~docv:"QUAL" ~doc:"Inline qualifier declaration")

let no_defaults_arg =
  Arg.(
    value & flag
    & info [ "no-default-qualifiers" ]
        ~doc:"Do not include the built-in default qualifier set")

let list_quals_arg =
  Arg.(
    value & flag
    & info [ "list-qualifiers" ]
        ~doc:"Include the list-length (llen) qualifier set")

let spec_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"SPECFILE"
        ~doc:"Refinement-type specifications (val name : type) to check \
              modularly")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print inference statistics")

let run_arg =
  Arg.(
    value & flag
    & info [ "run" ]
        ~doc:"After verification, execute the program with the reference \
              interpreter (bounds- and assertion-checked)")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:"Run the semantic-lint pass: unreachable branches (L001), \
              always-true/false conditions (L002), unused (L003) and \
              shadowed (L004) bindings, dead qualifiers (L005)")

let warn_error_arg =
  Arg.(
    value & flag
    & info [ "warn-error" ]
        ~doc:"Treat lint warnings as errors: exit non-zero if any \
              warning-severity diagnostic is reported (implies $(b,--lint))")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Under $(b,--serve): the daemon-wide cap on concurrent solve \
              worker processes (default 1)")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text) (default) or $(b,json) \
              (machine-readable report with diagnostics and stats)")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:"Persist verification results under $(docv): re-verifying an \
              unchanged program (same source, qualifiers, and options, same \
              dsolve build) is served from disk.  Stale or corrupt entries \
              fall back silently to a cold run")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Explain each failed obligation after the fixpoint: the \
              minimal hypothesis core, the blame path through the inferred \
              refinements to its source origins, a concrete counterexample \
              witness, and — when the bounded search finds one — a repair \
              hint naming a qualifier that would make the obligation verify")

let explain_limit_arg =
  Arg.(
    value & opt int 5
    & info [ "explain-limit" ] ~docv:"N"
        ~doc:"Explain at most $(docv) failures per run (default 5); \
              further failures are counted but not explained")

let gradual_arg =
  Arg.(
    value & flag
    & info [ "gradual" ]
        ~doc:"Gradual liquid mode: after the fixpoint, each failing \
              obligation the environment does not refute becomes a \
              residual runtime cast instead of an error, with a verified \
              repair hint.  The verdict becomes SAFE / SAFE_MODULO n / \
              UNSAFE; combine with $(b,--run) to execute the program with \
              the casts armed and report which residuals held")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCK"
        ~doc:"Run as a verification daemon on the Unix-domain socket \
              $(docv), keeping solver state warm across requests; combine \
              with $(b,--cache) for a persistent result cache")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:"Verify the given files through the daemon listening on \
              $(docv) instead of solving in-process")

let request_timeout_arg =
  Arg.(
    value
    & opt float 300.0
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:"Under $(b,--serve): wall-clock budget per program; an \
              exceeded solve is killed and rejected with E_TIMEOUT. \
              0 disables the timeout")

let max_inflight_arg =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Under $(b,--serve): global cap on cold solves queued or \
              running at once; programs beyond it are shed with E_OVERLOAD \
              instead of queueing without bound (default 64)")

let client_queue_arg =
  Arg.(
    value & opt int 16
    & info [ "client-queue" ] ~docv:"N"
        ~doc:"Under $(b,--serve): per-connection cap on cold solves waiting \
              for a worker; one client's burst beyond it is shed with \
              E_OVERLOAD rather than starving other tenants (default 16)")

let idle_timeout_arg =
  Arg.(
    value
    & opt float 600.0
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Under $(b,--serve): close client connections with no \
              outstanding work and no I/O for $(docv) seconds (default 600; \
              0 disables)")

let server_stats_arg =
  Arg.(
    value & flag
    & info [ "server-stats" ]
        ~doc:"Under $(b,--connect): print the daemon's lifetime counters \
              (requests, cache hits, coalesced and shed solves, failures, \
              open connections)")

let server_shutdown_arg =
  Arg.(
    value & flag
    & info [ "server-shutdown" ]
        ~doc:"Under $(b,--connect): ask the daemon to exit")

let cmd =
  let doc = "liquid type inference for NanoML (PLDI 2008 reproduction)" in
  Cmd.v
    (Cmd.info "dsolve" ~version:"1.0.0" ~doc)
    Term.(
      const run $ files_arg $ qualfile_arg $ inline_quals_arg $ no_defaults_arg
      $ list_quals_arg $ spec_arg $ stats_arg $ run_arg $ lint_arg
      $ warn_error_arg $ format_arg $ jobs_arg $ cache_arg $ explain_arg
      $ explain_limit_arg $ gradual_arg $ serve_arg $ connect_arg
      $ request_timeout_arg $ max_inflight_arg $ client_queue_arg
      $ idle_timeout_arg $ server_stats_arg $ server_shutdown_arg)

let () = exit (Cmd.eval' cmd)
