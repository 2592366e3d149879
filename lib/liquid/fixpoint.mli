(** Liquid constraint solving by predicate abstraction: the paper's
    [Solve]/[Weaken] fixpoint with a dependency-directed worklist,
    followed by the final check of concrete obligations. *)

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
  mutable pruned : int; (* parked by the pre-fixpoint prune *)
  mutable reinstated : int;
      (* parked/weakened instances restored by the post-fixpoint
         reinstatement pass *)
  mutable solve_time : float; (* seconds in the weakening loop *)
  mutable check_time : float; (* seconds checking concrete obligations *)
  mutable prune_time : float; (* seconds in the pre-fixpoint prune pass *)
  mutable reinstate_time : float; (* seconds in the reinstatement pass *)
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
    All engine state (worklist, assignment, compiled-constraint cache,
    counters) is local to one {!solve_unit} call; a multi-unit run merges
    the resulting {!partial}s with the pure functions below.  A
    whole-system run is the special case of a single unit with an empty
    base, which is exactly what {!solve} does. *)

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

(** Solve one unit to fixpoint and check its concrete obligations.
    [base] holds the final solutions of every upstream κ read but not
    owned by this unit; [init] is the initial assignment of the unit's
    own κs.  [prune_wf] (per-κ well-formedness facts, {!Prune.wf_facts})
    enables the pre-fixpoint prune analysis and the post-fixpoint
    reinstatement pass; the final solution is unchanged, only the work
    to reach it shrinks.  Without [prune_wf] the unit is solved
    unpruned: the reference that tests hold the pruned engine to. *)
val solve_unit :
  ?incremental:bool ->
  ?prune_wf:Pred.t list KMap.t ->
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
    same solution and failures, in the same order.  The solve always
    runs the pre-fixpoint qualifier-space prune and the post-fixpoint
    reinstatement (see {!Prune}). *)
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

(** Antecedent of a constraint under [lookup]: (prunable binding facts,
    verbatim-kept lhs preds @ guards) — precisely the [(hyps, kept)]
    pair the concrete pass hands to {!Liquid_smt.Solver.check_valid}. *)
val hypotheses :
  (Rtype.kvar -> Pred.t list) -> Constr.sub -> Pred.t list * Pred.t list
