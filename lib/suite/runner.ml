(** Convenience layer for running the benchmark suite: verification with
    each benchmark's qualifier set, and a tabular summary mirroring the
    paper's results table. *)

type row = {
  bench : Programs.benchmark;
  report : Liquid_driver.Pipeline.report;
  n_extra_quals : int;
  time : float; (* wall-clock seconds for the whole pipeline *)
}

let qualifiers_of (b : Programs.benchmark) =
  Liquid_infer.Qualifier.defaults
  @ Liquid_infer.Qualifier.parse_string b.extra_qualifiers

(** Verify one benchmark with its qualifier set.  Constant mining is off
    by default: the paper's evaluation supplies qualifiers explicitly, and
    mining only grows the candidate sets on these programs. *)
let verify ?quals ?(mine = false) ?(lint = false) (b : Programs.benchmark) :
    row =
  let quals = match quals with Some q -> q | None -> qualifiers_of b in
  let options =
    {
      Liquid_driver.Pipeline.default with
      Liquid_driver.Pipeline.quals;
      mine;
      lint;
    }
  in
  let t0 = Unix.gettimeofday () in
  let report =
    Liquid_driver.Pipeline.verify_string ~options ~name:b.name b.source
  in
  {
    bench = b;
    report;
    n_extra_quals =
      List.length (Liquid_infer.Qualifier.parse_string b.extra_qualifiers);
    time = Unix.gettimeofday () -. t0;
  }

let verify_all () : row list = List.map verify Programs.all

(** Paper-style results table.  The [DML] column is the paper-reported
    annotation size of the DML baseline (characters of manual dependent
    annotations); [Quals] counts qualifier {e patterns} beyond the shared
    default set, matching the paper's claim that a small shared set plus a
    handful of per-program patterns suffices. *)
let pp_table ppf (rows : row list) =
  Fmt.pf ppf "%-10s %6s %6s %8s %7s %9s %8s@." "Program" "Lines" "DML"
    "Quals(+)" "Safe" "SMTquery" "Time(s)";
  Fmt.pf ppf "%s@." (String.make 60 '-');
  List.iter
    (fun r ->
      let s = r.report.Liquid_driver.Pipeline.stats in
      Fmt.pf ppf "%-10s %6d %6d %8d %7s %9d %8.2f@." r.bench.Programs.name
        s.Liquid_driver.Pipeline.source_lines r.bench.Programs.dml_annot
        r.n_extra_quals
        (if r.report.Liquid_driver.Pipeline.safe then "yes" else "NO")
        s.Liquid_driver.Pipeline.n_smt_queries r.time)
    rows;
  let total_time = List.fold_left (fun a r -> a +. r.time) 0.0 rows in
  Fmt.pf ppf "%s@." (String.make 60 '-');
  Fmt.pf ppf "%-10s %6d %6s %8d %7s %9s %8.2f@." "Total"
    (List.fold_left
       (fun a r -> a + r.report.Liquid_driver.Pipeline.stats.Liquid_driver.Pipeline.source_lines)
       0 rows)
    ""
    (List.fold_left (fun a r -> a + r.n_extra_quals) 0 rows)
    (if List.for_all (fun r -> r.report.Liquid_driver.Pipeline.safe) rows then
       "yes"
     else "NO")
    "" total_time

(** Execute a benchmark with the reference interpreter; returns the value
    of its [main] binding.  Raises if evaluation violates bounds or an
    assertion — which, by soundness, cannot happen for a verified
    program. *)
let execute (b : Programs.benchmark) : Liquid_eval.Eval.value =
  let prog = Liquid_lang.Parser.program_of_string ~file:b.name b.source in
  let env = Liquid_eval.Eval.run_program ~fuel:10_000_000 prog in
  match Liquid_common.Ident.Map.find_opt "main" env with
  | Some v -> v
  | None -> failwith (b.name ^ ": no main binding")
