(** Public SMT interface: validity of quantifier-free EUFLIA implications,
    with hypothesis relevance pruning, result caching, and statistics.
    This is the module the liquid fixpoint talks to. *)

open Liquid_logic

type result = Valid | Invalid | Unknown

type stats = {
  mutable queries : int;
  mutable cache_hits : int;
  mutable sat_checks : int;
  mutable unknowns : int;
  mutable time : float;
}

val stats : stats
val reset_stats : unit -> unit
val pp_stats : Format.formatter -> unit -> unit

(** Empty the result cache. *)
val clear_cache : unit -> unit

(** Counterexample values: integers keep their magnitude, boolean-sorted
    entities render as booleans (re-exported from the theory layer). *)
type cex_value = Theory.value = Vint of int | Vbool of bool

val pp_cex_value : Format.formatter -> cex_value -> unit

(** Counterexample (label -> value) for the most recent [Invalid]
    answer. *)
val last_cex : (string * cex_value) list ref

(** Counterexample of the most recent [Invalid] answer, under original
    (uncleaned) entity labels, suitable for strict predicate evaluation
    (no alpha-renaming collisions).  Restored on result-cache hits from
    the cached entry, so its value does not depend on cache temperature;
    empty means "no model available". *)
val last_cex_raw : (string * cex_value) list ref

(** Deterministic work units of the most recently decided query (theory
    literals processed + simplex pivots of its SAT check) — measured
    fresh, replayed on cache hits, zero for trivially decided queries.
    A reproducible cost proxy: unlike wall-clock time it is a pure
    function of the query, independent of machine load and cache
    temperature. *)
val last_work : int ref

(** Monotone sum of {!last_work} across all decided queries, for metering
    spans of solver work via before/after deltas. *)
val work_total : int ref

(** Clear all answer-bearing module-level state across the SMT stack —
    {!last_cex}, {!Dpll.last_model}, {!Theory.last_model}, and the
    per-run instrumentation counters of {!Dpll}/{!Theory}/{!Lia} — so a
    warm process (the verification daemon, or repeated in-process
    pipeline runs) can never report stale results from a previous run.
    Does {e not} clear the result cache ({!clear_cache}) or the
    cumulative {!stats}, which consumers read as before/after deltas. *)
val reset_run_state : unit -> unit

(** [check_valid ~kept hyps goal] decides [kept /\ hyps => goal].
    [hyps] are subject to relevance pruning: hypotheses sharing no
    variable, transitively, with the goal are dropped (sound: dropping
    hypotheses only makes implications harder).  [kept] hypotheses
    (typically path guards) are exempt from pruning. *)
val check_valid : ?kept:Pred.t list -> Pred.t list -> Pred.t -> result

(** Like {!check_valid}, but also returns the indices of [hyps] retained
    by relevance pruning (ground hypotheses are always retained).  A
    verdict can only depend on retained hypotheses, which lets
    incremental callers skip re-checks when none of them changed. *)
val check_valid_idx :
  ?kept:Pred.t list -> Pred.t list -> Pred.t -> result * int list

(** A pruned implication query prepared once and decided later: the
    interned cache key plus [pruned_idx], the hypothesis indices retained
    by relevance pruning.  Lets a caller probe the cache and, on a miss,
    SAT-check the very same query without rebuilding it. *)
type prepared = private { query : Pred.t; pruned_idx : int list }

val prepare : ?kept:Pred.t list -> Pred.t list -> Pred.t -> prepared

(** Resolve a prepared query against the result cache without invoking
    the SAT solver ([None]: a fresh SAT check would be needed).  Counts
    as a query (and cache hit) only when it answers. *)
val probe_query : prepared -> result option

(** Decide a prepared query (cache first, then a SAT check). *)
val check_query : prepared -> result

(** Satisfiability of a formula ([Unknown] counts as satisfiable). *)
val is_sat : Pred.t -> bool

(** {1 Incremental assertion context}

    A persistent solver context: facts are Tseitin-encoded once into a
    shared builder (atom table, clause list) and participate in every
    subsequent check; [push]/[pop] bracket speculative assertions by
    truncating the builder back to saved marks.  The qualifier-pruning
    pass asserts a κ's well-formedness facts once and then
    subsumption-checks each candidate against them incrementally. *)

type context

val create_context : unit -> context

(** Run [f] with a fresh context (convenience; the context carries no
    resources needing cleanup). *)
val with_context : (context -> 'a) -> 'a

(** Save a backtracking mark. *)
val ctx_push : context -> unit

(** Discard everything asserted since the matching {!ctx_push}.
    @raise Invalid_argument if no frame is open. *)
val ctx_pop : context -> unit

(** Assert a fact: encoded into the persistent builder, it constrains
    every subsequent check until popped. *)
val ctx_assert : context -> Pred.t -> unit

(** The currently-asserted facts, oldest first (for tests). *)
val ctx_assertions : context -> Pred.t list

(** Whether the asserted facts entail [goal]: checks
    [facts /\ not goal] inside a private frame, leaving the context as
    it was.  Counts as a query in {!stats}. *)
val ctx_entails : context -> Pred.t -> result
