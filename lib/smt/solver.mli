(** Public SMT interface: validity of quantifier-free EUFLIA implications,
    with hypothesis relevance pruning, result caching, and statistics.
    This is the module the liquid fixpoint talks to. *)

open Liquid_logic

(** Counterexample values: integers keep their magnitude, boolean-sorted
    entities render as booleans (re-exported from the theory layer). *)
type cex_value = Theory.value = Vint of int | Vbool of bool

val pp_cex_value : Format.formatter -> cex_value -> unit

(** The falsifying model of an [Invalid] answer, twice: [display] maps
    the query's source-level entities to their values (labels cleaned
    for printing); [raw] keys the same model by the entities' original
    labels, which a strict evaluator can resolve terms against without
    alpha-renaming collisions.  A trivially falsifiable query has an
    empty model. *)
type cex = {
  display : (string * cex_value) list;
  raw : (string * cex_value) list;
}

type result = Valid | Invalid of cex | Unknown

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

(** Monotone sum of the deterministic work units of every decided query
    (theory literals processed + simplex pivots of its SAT check) —
    measured fresh, replayed on cache hits, zero for trivially decided
    queries — for metering spans of solver work via before/after deltas.
    A reproducible cost proxy: unlike wall-clock time it is a pure
    function of the queries, independent of machine load and cache
    temperature. *)
val work_total : int ref

(** Reset the per-run instrumentation counters of {!Dpll}, {!Theory},
    {!Simplex} and {!Lia}.  Does {e not} clear the result cache
    ({!clear_cache}), the cumulative {!stats} or {!work_total}, which
    consumers read as before/after deltas. *)
val reset_run_state : unit -> unit

(** A pruned implication query: the interned cache key plus
    [pruned_idx], the indices of the hypotheses relevance pruning
    retained (ground hypotheses are always retained).  A verdict can
    only depend on retained hypotheses, which lets incremental callers
    skip re-checks when none of them changed. *)
type prepared = private { query : Pred.t; pruned_idx : int list }

(** [prepare ~kept hyps goal] builds the query for [kept /\ hyps => goal].
    [hyps] are subject to relevance pruning: hypotheses sharing no
    variable, transitively, with the goal are dropped (sound: dropping
    hypotheses only makes implications harder).  [kept] hypotheses
    (typically path guards) are exempt from pruning. *)
val prepare : ?kept:Pred.t list -> Pred.t list -> Pred.t -> prepared

(** Decide a prepared query: the result cache first (a hit returns the
    stored answer, model included), then a SAT check. *)
val check_query : prepared -> result

(** [check_valid ?kept hyps goal] is [check_query (prepare ?kept hyps
    goal)]. *)
val check_valid : ?kept:Pred.t list -> Pred.t list -> Pred.t -> result

(** Satisfiability of a formula ([Unknown] counts as satisfiable). *)
val is_sat : Pred.t -> bool
