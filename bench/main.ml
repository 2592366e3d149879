(** Benchmark harness: regenerates the tables and figures of the paper's
    evaluation (see EXPERIMENTS.md for the experiment index).

    - [T1] — the results table (Program / Lines / DML / Qualifiers /
      Time): verification of the 11 DML-suite benchmarks with their
      qualifier sets, alongside the paper-reported DML annotation sizes.
    - [F1] — the overview "figures": inferred liquid types of the worked
      examples ([max], [sum], [foldn], [arraymax]).
    - [A1] — qualifier ablation: benchmarks needing a custom qualifier
      pattern fail cleanly without it (supports the paper's claim that
      the qualifier language is the entire annotation burden).
    - [E1] — the extended suite (ours), verified with constant mining.
    - [A3] — constant-mining ablation (ours): a constant-bound probe and
      the T1 suite, mining on and off.

    Run with [dune exec bench/main.exe]; it exits non-zero if any T1
    benchmark verifies UNSAFE.  Timing under fixed regression bounds is
    the job of [bench/perf] (see BENCHMARK.json). *)

module Pipeline = Liquid_driver.Pipeline
module Programs = Liquid_suite.Programs
module Runner = Liquid_suite.Runner

let line = String.make 72 '='

let section name = Fmt.pr "@.%s@.== %s@.%s@." line name line

let is_safe (r : Runner.row) = r.Runner.report.Pipeline.safe

(* ------------------------------------------------------------------ *)
(* T1: the results table                                               *)
(* ------------------------------------------------------------------ *)

let t1 () =
  section "T1: Benchmark results (paper: Figure `Results')";
  Fmt.pr
    "Each row verifies one NanoML port of the paper's DML benchmark with@.\
     the shared default qualifiers plus the listed per-program patterns.@.\
     `DML' is the paper-reported annotation size (chars) of the DML@.\
     baseline; the reproduction claim is the shape: a handful of@.\
     qualifier patterns replaces per-function dependent signatures.@.@.";
  let rows = Runner.verify_all () in
  Fmt.pr "%a@." Runner.pp_table rows;
  rows

(* ------------------------------------------------------------------ *)
(* F1: inferred types of the overview examples                         *)
(* ------------------------------------------------------------------ *)

let f1 () =
  section "F1: Inferred liquid types (paper: overview figures)";
  List.iter
    (fun (ex : Liquid_suite.Overview.example) ->
      let name = ex.Liquid_suite.Overview.name in
      let r =
        Pipeline.verify_string ~name ex.Liquid_suite.Overview.source
      in
      Fmt.pr "--- %s (%s)@." name
        (if r.Pipeline.safe then "safe" else "UNSAFE");
      List.iter
        (fun (x, t) ->
          if not (Liquid_common.Ident.is_internal x) then
            Fmt.pr "  val %a : %a@." Liquid_common.Ident.pp x
              Liquid_infer.Rtype.pp (Liquid_infer.Report.display t))
        r.Pipeline.item_types;
      Fmt.pr "@.")
    Liquid_suite.Overview.all

(* ------------------------------------------------------------------ *)
(* A1: qualifier ablation                                              *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1: Qualifier ablation (custom patterns are necessary)";
  Fmt.pr "%-10s %-38s %10s %10s@." "Program" "Extra qualifier" "with" "without";
  let verdict (r : Runner.row) =
    if is_safe r then "safe"
    else Fmt.str "%d errors" (List.length r.Runner.report.Pipeline.errors)
  in
  List.iter
    (fun name ->
      let b = Programs.find name in
      let with_ = Runner.verify b in
      let without = Runner.verify ~quals:Liquid_infer.Qualifier.defaults b in
      Fmt.pr "%-10s %-38s %10s %10s@." name
        (String.trim b.Programs.extra_qualifiers)
        (verdict with_) (verdict without))
    [ "tower"; "simplex"; "gauss"; "bcopy" ]

(* ------------------------------------------------------------------ *)
(* E1: extended suite (ours)                                           *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1: Extended suite (beyond the paper's table)";
  Fmt.pr
    "Additional verified programs exercising modular indexing, in-place@.\
     triangular updates, flag arrays, two-array scans, rectangular@.\
     matrices and memoization; run with constant mining enabled.@.@.";
  let width =
    List.fold_left
      (fun w (b : Programs.benchmark) ->
        max w (String.length b.Programs.description))
      (String.length "Description") Liquid_suite.Extended.all
  in
  Fmt.pr "%-10s %-*s %6s %8s@." "Program" width "Description" "Safe" "Time(s)";
  Fmt.pr "%s@." (String.make (width + 27) '-');
  List.iter
    (fun (b : Programs.benchmark) ->
      let row = Runner.verify ~mine:true b in
      Fmt.pr "%-10s %-*s %6s %8.2f@." b.Programs.name width b.Programs.description
        (if is_safe row then "yes" else "NO")
        row.Runner.time)
    Liquid_suite.Extended.all

(* ------------------------------------------------------------------ *)
(* A3: qualifier mining ablation (ours)                                *)
(* ------------------------------------------------------------------ *)

let a3 () =
  section "A3: Constant-mining ablation";
  Fmt.pr
    "Mining adds the program's comparison constants as placeholder@.\
     candidates (as DSOLVE scraped constants).  It proves constant@.\
     post-conditions no explicit qualifier covers, at some cost in@.\
     candidate-set size.@.@.";
  let probe =
    "let rec f i = if i < 10 then begin assert (i <= 9); f (i + 1) end else i\n\
     let main = assert (f 0 = 10)"
  in
  let verdict mine =
    let r =
      Pipeline.verify_string
        ~options:{ Pipeline.default with Pipeline.mine }
        ~name:"probe" probe
    in
    if r.Pipeline.safe then "safe" else "UNSAFE"
  in
  Fmt.pr "constant-bound probe:  mining on: %s   mining off: %s@."
    (verdict true) (verdict false);
  let time_suite mine =
    let t0 = Unix.gettimeofday () in
    let rows = List.map (fun b -> Runner.verify ~mine b) Programs.all in
    (Unix.gettimeofday () -. t0, List.for_all is_safe rows)
  in
  let t_off, safe_off = time_suite false in
  let t_on, safe_on = time_suite true in
  Fmt.pr "T1 suite:  mining off: %.1fs (safe=%b)   mining on: %.1fs (safe=%b)@."
    t_off safe_off t_on safe_on

let () =
  let rows = t1 () in
  f1 ();
  a1 ();
  e1 ();
  a3 ();
  let all_safe = List.for_all is_safe rows in
  Fmt.pr "@.%s@.Overall: %s@.%s@." line
    (if all_safe then "all benchmarks verified SAFE"
     else "SOME BENCHMARKS FAILED")
    line;
  exit (if all_safe then 0 else 1)
