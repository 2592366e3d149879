(** Liquid constraint solving by predicate abstraction: the paper's
    [Solve]/[Weaken] fixpoint with a dependency-directed worklist and
    model-based elimination, followed by the final check of concrete
    obligations.  There is one weakening engine, with one mode, and one
    solve path: {!solve} runs it over a whole plan, unit by unit. *)

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

(** Counters of the units a run solved: worklist pops, implication
    checks, and the initial instances of their κs.  A unit served from
    the partition cache counts in none of them. *)
type stats = {
  mutable iterations : int;
  mutable implication_checks : int;
  mutable initial_candidates : int;
  mutable alpha_collapsed : int;
      (* instances collapsed by orientation-level dedup at instantiation *)
}

(** Shape and cost of one solve unit. *)
type part_info = {
  pt_id : int;
  pt_kvars : int; (* κs owned *)
  pt_subs : int; (* constraints solved *)
  pt_time : float;
      (* wall-clock seconds: key, cache probe or solve, store, and
         folding into the run's solution *)
}

(** A whole run's answer, folded by {!solve} from its units'
    {!partial}s. *)
type result = {
  solution : Constr.solution;
  failures : failure list; (* in original-constraint order *)
  solver_stats : stats;
  parts : part_info list; (* by unit id *)
  unit_hits : int; (* units served from the partition cache *)
  unit_misses : int; (* units solved live under a partition cache *)
}

(** Candidate assignment: per κ, the qualifier instances, each tagged
    with the names of the qualifier patterns that produced it. *)
type candidates = (Pred.t * SSet.t) list KMap.t

(** Initial (strongest) assignment from the well-formedness constraints:
    all qualifier instances scoping correctly per κ, intersected over
    the κ's wf environments.  [collapsed] is incremented once per
    instance collapsed by orientation-level dedup at instantiation.  The
    solve drops the pattern names; the dead-qualifier lint reads them. *)
val init_assignment :
  ?consts:int list ->
  ?collapsed:int ref ->
  Qualifier.t list ->
  Constr.wf list ->
  candidates

(** {1 Solve units}

    The engine solves {e units}: subsets of the constraint system whose
    κs are closed under mutual dependency (see {!Constr.partition_plan}).
    The worklist, assignment and compiled-constraint cache are local to
    one unit's solve; only the run's counters and model-based
    elimination state cross units.  That state is a pool of
    counterexample models harvested from failing checks and a
    per-constraint bandit that decides each writer visit
    conjunction-first or goal by goal.  A pooled model kills a pending
    instance only when it satisfies that instance's prepared query
    under the current assignment, so the state changes the work a solve
    does, never its answer. *)

(** Result of solving one unit: the final assignment of its κs and its
    concrete-check failures in constraint order.  This is all the
    partition cache stores of a unit. *)
type partial = { pr_solution : Constr.solution; pr_failures : failure list }

(** Version tag of the marshalled [partial] payload, for fingerprints of
    persistent partition-cache entries ({!Liquid_cache.Store}): a
    [partial] written under one tag is never read under another.  Bump
    on any semantic change to what a partial represents. *)
val partial_version : string

(** [solve ?reuse ?persist ~quals ~consts wfs subs plan] solves the
    system described by [plan] (built from [wfs]/[subs]) unit by unit, in
    process and in id order (always legal: every dependency has a
    smaller id).  Each unit solved is first given its initial
    assignment: {!init_assignment} over the wf constraints of its own
    κs, without the pattern names.  It is solved with the upstream
    solutions folded so far as its base, counting into the run's
    [solver_stats], and folded into the running solution and failure
    list.  Every unit shares one elimination state made for this call,
    which the units extend in id order.  Failures are returned in
    original-constraint order.  [subs] must be the same list [plan] was
    built from.

    [reuse]/[persist] connect a per-partition result cache.  Each unit
    is addressed by a content key, a digest of three digests:
    {!Constr.unit_signature} (its constraints and owned-κ wf
    environments), one digest of [quals] (names included) and [consts]
    for the whole call, and the digest of each [part_deps] unit's final
    solution, taken once as that unit is folded in.  A key matches
    exactly when every input that determines the unit's {!partial} is
    unchanged; a change to [quals] or [consts] changes every key.
    [reuse key] is consulted once the unit's dependencies are folded
    in; a hit skips the unit's instantiation and solve, is re-interned
    and folded in like a solved partial, and counts in [unit_hits] and
    in no other counter: [solver_stats] and the SMT layer's counters
    count only the units this call solved.  Units solved live are
    offered to [persist key partial] (and counted in [unit_misses]).
    Without either hook no digest is computed. *)
val solve :
  ?reuse:(string -> partial option) ->
  ?persist:(string -> partial -> unit) ->
  quals:Qualifier.t list ->
  consts:int list ->
  Constr.wf list ->
  Constr.sub list ->
  Constr.plan ->
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
