(** The DSOLVE pipeline: parse → A-normalize → ML inference → liquid
    constraint generation → fixpoint solving → report.  The public entry
    point of the library. *)

open Liquid_common
open Liquid_lang
open Liquid_infer

type error = {
  err_loc : Loc.t;
  err_reason : string;
  err_goal : string;
  err_count : int; (* identical failures folded into this one *)
  err_cex : (string * Liquid_smt.Solver.cex_value) list;
      (* falsifying values, when available *)
}

(** Shape and per-unit cost of the solve plan (see
    {!Liquid_infer.Constr.partition_plan}).  Every run solves unit by
    unit, so [pt_time] is measured at every job count. *)
type part_stat = {
  pt_id : int;
  pt_kvars : int; (* κs owned by the partition *)
  pt_subs : int; (* constraints solved there *)
  pt_time : float; (* wall-clock seconds *)
}

type stats = {
  source_lines : int;
  ast_nodes : int;
  n_kvars : int;
  n_wf_constraints : int;
  n_sub_constraints : int;
  n_qualifiers : int; (* qualifier patterns supplied *)
  n_measures : int; (* user-declared measures in the program *)
  n_measure_axioms : int; (* measure axioms emitted during congen *)
  n_initial_candidates : int; (* total instances over all κs *)
  n_alpha_collapsed : int;
      (* instances collapsed by orientation-level dedup at instantiation *)
  n_quals_pruned : int;
  n_reinstated : int;
  prune_time : float;
  reinstate_time : float;
      (* always 0.  Kept only because the repository benchmark
         (bench/perf/layers.ml) reads them; they leave with its next
         change. *)
  n_implication_checks : int;
  n_smt_queries : int;
  n_smt_cache_hits : int;
  n_lint_smt_queries : int; (* SMT queries spent by the lint pass *)
  n_explain_smt_queries : int; (* SMT queries spent by the explain pass *)
  n_diagnostics : int; (* lint diagnostics emitted *)
  n_partitions : int; (* solve units in the partition plan *)
  critical_path : int; (* longest dependency chain, in partitions *)
  partitions : part_stat list; (* by partition id *)
  n_residuals : int; (* residual casts ([gradual] runs only) *)
  n_pcache_lookups : int;
      (* persistent-cache probes for this run: 1 when [cache_dir] is
         set, else 0 *)
  n_pcache_hits : int;
      (* 1 iff this report was served from the persistent cache; its
         other counters then describe the original (cold) run *)
  n_punit_hits : int;
      (* solve units served from the partition-level cache — an edited
         program re-solves only the cone downstream of the edit *)
  n_punit_misses : int;
      (* solve units solved live under an enabled partition cache *)
  elapsed : float; (* sum of the phase times below *)
  phases : (string * float) list;
      (* per-phase wall-clock seconds, in pipeline order:
         parse, anf, hm, congen, partition, solve, concrete_check,
         merge, gradual (when enabled), explain (when enabled), lint.
         [elapsed] is exactly their sum.  "solve" is the solve's wall
         time less the parent-side folding, which goes under "merge";
         each unit runs its concrete check right after its weakening
         loop, so "concrete_check" reads 0. *)
}

type report = {
  safe : bool;
  errors : error list;
  residuals : Liquid_gradual.Gradual.residual list;
      (* unprovable-but-unrefuted obligations deferred to runtime casts;
         empty unless [options.gradual].  [safe] means "no hard errors":
         a gradual report with residuals is SAFE_MODULO their count
         ({!Liquid_gradual.Gradual.verdict_of}). *)
  item_types : (Ident.t * Rtype.t) list; (* with the solution applied *)
  lints : Liquid_analysis.Diagnostic.t list; (* empty unless [lint] *)
  explanations : Liquid_explain.Explain.explanation list;
      (* one per explained failure; empty unless [explain] *)
  explain_skipped : int; (* failures beyond [explain_limit] *)
  stats : stats;
}

exception Source_error of string * Loc.t

(** Lines containing code outside comments (the LOC column of the results
    table); comment nesting is tracked across lines. *)
val count_lines : string -> int

(** Parse a compilation unit into its program and its declaration unit
    (type and measure declarations), validating the declarations
    ({!Liquid_lang.Declcheck}).
    @raise Source_error on lex/parse errors and on the first declaration
    diagnostic (message tagged with the [D]-code). *)
val parse_program_decls : name:string -> string -> Ast.program * Ast.decls

(** Integer literals the program compares against (qualifier mining). *)
val mine_constants : Ast.program -> int list

(** Everything that tunes a verification run; override fields of
    {!default} ([{ Pipeline.default with jobs = 4 }]).

    [quals] is the qualifier set; [mine] enables constant mining over
    the {e pre-ANF} source AST; [specs] supplies external signatures;
    [lint] runs the semantic-lint pass ({!Liquid_analysis.Lint}) and
    fills [report.lints]; [incremental] selects the fixpoint engine
    (see {!Liquid_infer.Fixpoint.solve}); [jobs] > 1 solves independent
    constraint partitions in concurrent worker processes (verdicts,
    errors, and inferred types are identical to [jobs = 1]: the liquid
    fixpoint is unique); [partition_timeout] is the per-partition
    wall-clock budget under sharded execution, off when [None] — a
    partition that exceeds it (or whose worker crashes) is retried
    once, and a second failure fails the run with [Failure] rather than
    report anything a [jobs = 1] run would not;
    [cache_dir], when set, roots a persistent on-disk result cache
    ({!Liquid_cache.Store}): {!verify_string}/{!verify_file} first probe
    it for a finished report keyed on (name, source text, options
    fingerprint) and store their result on a miss, so re-verifying an
    unchanged program — even across processes and daemon restarts —
    costs one digest and one file read.  On a whole-run miss the solve
    itself runs incrementally over the same store: each solve unit of
    the partition plan is content-addressed (constraints + instantiated
    qualifiers + upstream κ solutions — see
    {!Liquid_engine.Psolve.solve}), units whose keys are unchanged are
    reused from disk, and only the cone downstream of an edit is
    re-solved ([stats.n_punit_hits]/[n_punit_misses]).  Stale or
    corrupt entries fall back silently to a cold solve. *)
type options = {
  quals : Qualifier.t list;
  mine : bool;
  specs : Spec.t;
  lint : bool;
  incremental : bool;
  jobs : int;
  partition_timeout : float option;
  cache_dir : string option;
  explain : bool;
      (* explain failed obligations after the fixpoint: minimal cores,
         blame paths, witnesses, repair hints ({!Liquid_explain.Explain}) *)
  explain_limit : int; (* failures explained per run; the rest counted *)
  gradual : bool;
      (* gradual liquid mode ({!Liquid_gradual.Gradual}): after the
         fixpoint, each failing obligation the environment does not
         refute becomes a residual runtime cast ([report.residuals])
         instead of an error; only refuted obligations stay in
         [report.errors].  Orthogonal to every solve switch: residual
         reports are byte-identical across job counts, cache
         temperatures, and the daemon, and gradual/non-gradual runs
         never share cache entries (both fingerprints carry the flag). *)
}

(** Defaults: {!Liquid_infer.Qualifier.defaults}, mining on, no specs,
    lint off, incremental engine, [jobs = 1], no partition timeout, no
    persistent cache, explanation off with a limit of 5, gradual mode
    off. *)
val default : options

(** Canonical rendering of the report-determining option fields
    (qualifier set, specs, engine switches; [jobs] and
    [partition_timeout] are excluded — reports are
    scheduling-invariant).  Part of the persistent cache key, and
    embedded in every entry. *)
val options_fingerprint : options -> string

(** Canonical digest of one verification request:
    {!options_fingerprint} ‖ an MD5 over (name, source).  Requests with
    equal keys are guaranteed byte-identical reports — the daemon keys
    its in-memory memo table and its in-flight coalescing map on this,
    folding concurrent identical solves onto one worker. *)
val request_key : options:options -> name:string -> string -> string

(** Re-intern a report that crossed a process boundary (disk cache,
    scheduler pipe, daemon socket): maps its unmarshalled — physically
    foreign — predicates back to the canonical hash-consed nodes, so the
    report prints and compares exactly like a natively computed one. *)
val rehash_report : report -> report

(** Probe the persistent cache for a finished report of [src] under
    [options] ([None] when [options.cache_dir] is unset, or on a miss).
    Reports served from the cache have [stats.n_pcache_hits = 1] and are
    re-interned ({!rehash_report}) before being returned. *)
val cache_lookup : options:options -> name:string -> string -> report option

(** Verify a parsed program.  [parse_time] seeds the "parse" entry of
    [stats.phases] for callers that parsed separately.  [decls] is the
    program's declaration unit (default {!Liquid_lang.Ast.no_decls}),
    assumed already validated by {!Liquid_lang.Declcheck} — its measures
    are loaded for the run and their generated qualifier patterns
    appended to [options.quals].
    @raise Source_error on type errors. *)
val verify_program :
  ?options:options ->
  ?parse_time:float ->
  ?decls:Ast.decls ->
  Ast.program ->
  source_lines:int ->
  report

val verify_string : ?options:options -> ?name:string -> string -> report
val verify_file : ?options:options -> string -> report

val pp_error : Format.formatter -> error -> unit

(** Print inferred types (display-cleaned), the verdict, and any
    diagnostics. *)
val pp_report : Format.formatter -> report -> unit

(** Machine-readable form of a report ([dsolve --format json]). *)
val json_of_report : ?file:string -> report -> Liquid_analysis.Json.t

(** Machine-readable form of one explanation (an element of the
    report's ["explanations"] array). *)
val json_of_explanation :
  Liquid_explain.Explain.explanation -> Liquid_analysis.Json.t

(** Machine-readable form of one residual cast (an element of the
    report's ["residuals"] array). *)
val json_of_residual :
  Liquid_gradual.Gradual.residual -> Liquid_analysis.Json.t
