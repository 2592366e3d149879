(** Liquid constraint solving by predicate abstraction: the paper's
    [Solve]/[Weaken] fixpoint with a dependency-directed worklist and
    model-based elimination, followed by the final check of concrete
    obligations. *)

open Liquid_logic

(** Shared with {!Constr}, so a solver result is directly a
    {!Constr.solution}. *)
module KMap = Constr.KMap

module SSet : Set.S with type elt = string

type failure = {
  f_sub_id : int; (* the failing constraint, for explanation lookups *)
  f_origin : Constr.origin;
  f_goal : Pred.t; (* the unprovable obligation *)
  f_cex : (string * Liquid_smt.Solver.cex_value) list;
      (* falsifying values, when available *)
}

type stats = {
  mutable iterations : int;
  mutable implication_checks : int;
  mutable initial_candidates : int;
  mutable alpha_collapsed : int;
      (* instances collapsed by orientation-level dedup at instantiation *)
}

type result = {
  solution : Pred.t list KMap.t;
  failures : failure list;
  solver_stats : stats;
  dead_quals : string list;
      (* qualifier patterns with at least one initial instance, none of
         which survived weakening in any κ *)
}

(** {1 Solve units}

    The engine solves {e units} — subsets of the constraint system whose
    κs are closed under mutual dependency (see {!Constr.partition_plan}).
    The worklist, assignment, compiled-constraint cache and counters
    are local to one {!solve_unit} call; only the run's {!elim} state
    crosses units.  A multi-unit run merges the resulting {!partial}s
    with the pure functions below.  A whole-system run is the special
    case of a single unit with an empty base, which is exactly what
    {!solve} does. *)

(** Candidate assignment: per κ, the surviving qualifier instances, each
    tagged with the qualifier-pattern names that produced it. *)
type candidates = (Pred.t * SSet.t) list KMap.t

(** All-zero counters, for accumulating merged stats. *)
val fresh_stats : unit -> stats

(** Initial (strongest) assignment from the well-formedness constraints:
    all qualifier instances scoping correctly per κ, intersected over
    the κ's wf environments.  [collapsed] is incremented once per
    instance collapsed by orientation-level dedup at instantiation. *)
val init_assignment :
  ?consts:int list ->
  ?collapsed:int ref ->
  Qualifier.t list ->
  Constr.wf list ->
  candidates

(** Movement of the global {!Solver.stats} counters during one
    {!solve_unit} call, so a parent process can fold a worker's solver
    activity into its own counters. *)
type smt_delta = {
  d_queries : int;
  d_cache_hits : int;
  d_sat_checks : int;
  d_unknowns : int;
}

(** Result of solving one unit: final assignment of its κs, concrete
    failures keyed by [sub_id] (for deterministic cross-unit ordering),
    per-unit counters, and the SMT-counter delta. *)
type partial = {
  pr_solution : candidates;
  pr_failures : (int * failure) list;
  pr_stats : stats;
  pr_smt : smt_delta;
}

(** Version tag of the marshalled [partial] payload, for fingerprints of
    persistent partition-cache entries ({!Liquid_cache.Store}): a
    [partial] written under one tag is never read under another.  Bump
    on any semantic change to what a partial represents. *)
val partial_version : string

(** Model-based elimination state of one run: a pool of counterexample
    models harvested from failing checks (at most 8, most recent
    first), and a per-constraint bandit, with a run-wide prior, that
    decides each writer visit either conjunction-first or goal by goal.
    A pooled model kills a pending instance only when it satisfies that
    instance's prepared query under the current assignment, so the
    state changes the work a solve does, never its answer. *)
type elim

val fresh_elim : unit -> elim

(** Solve one unit to fixpoint and check its concrete obligations.
    [base] holds the final solutions of every upstream κ read but not
    owned by this unit; [init] is the initial assignment of the unit's
    own κs.  [elim] is the run's elimination state: the incremental
    engine reads and extends it, so every unit of a run can share one.
    Without [elim] the unit is solved pool-free: the reference that
    tests hold the engine to.  The naive engine ignores [elim]. *)
val solve_unit :
  ?incremental:bool ->
  ?elim:elim ->
  base:Constr.solution ->
  init:candidates ->
  Constr.sub list ->
  partial

(** {1 Merging} — pure; units own disjoint κ sets. *)

val merge_stats : stats -> stats -> stats
val merge_solutions : candidates -> candidates -> candidates

(** Qualifier patterns with an initial instance in some κ of [initial],
    none of which survived into [final]. *)
val dead_qualifiers : initial:candidates -> final:candidates -> string list

(** Re-intern a partial that crossed a process boundary (unmarshalled
    values are physically foreign to the local hash-cons tables; see
    {!Pred.rehasher}). *)
val rehash_partial : partial -> partial

(** {1 Whole-system solving} *)

(** Solve the constraint system as one unit.  [quals] are the qualifier
    patterns; [consts] are mined integer literals offered to
    placeholders.  [incremental] (default [true]) selects the
    incremental weakening engine — compiled antecedents with per-κ
    invalidation, re-checking only instances whose recorded κ-dependency
    set weakened; [false] runs the naive reference engine, which
    re-embeds and re-checks everything on each pop.  Both compute the
    same solution and failures, in the same order.  This is
    {!init_assignment} plus one {!solve_unit} with a {!fresh_elim}. *)
val solve :
  ?quals:Qualifier.t list ->
  ?consts:int list ->
  ?incremental:bool ->
  Constr.wf list ->
  Constr.sub list ->
  result

(** Replace every κ by the conjunction of its solution. *)
val apply_solution : Pred.t list KMap.t -> Rtype.t -> Rtype.t

(** {1 Explanation hooks} — the exact ingredients of the final concrete
    pass, exported so the explanation engine can rebuild (and minimize)
    a failing obligation's query under the final solution. *)

(** Logical value standing for [ν] at a given sort. *)
val vv_value : Sort.t -> Pred.value

(** A constraint's antecedent compiled into slots ({!Constr.slot}):
    the environment's binding facts, subject to relevance pruning, and
    the lhs preds then the guards, kept verbatim. *)
type antecedent

(** Compile a constraint's antecedent.  Pass [~inst:Constr.memoized_inst]
    for an antecedent that is expanded under many lookups. *)
val compile_antecedent : ?inst:Constr.inst -> Constr.sub -> antecedent

(** The [(hyps, kept)] pair of an antecedent under [lookup]: the
    environment facts with [tt] dropped, and the lhs preds @ guards. *)
val expand_antecedent :
  (Rtype.kvar -> Pred.t list) -> antecedent -> Pred.t list * Pred.t list

(** Antecedent of a constraint under [lookup], compiled and expanded
    once — precisely the [(hyps, kept)] pair the concrete pass hands to
    {!Liquid_smt.Solver.check_valid}. *)
val hypotheses :
  (Rtype.kvar -> Pred.t list) -> Constr.sub -> Pred.t list * Pred.t list
