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
    — measured fresh, replayed on cache hits, zero for trivially decided
    queries — for metering spans of solver work via before/after deltas.
    A query's units are the literals of every conjunction its SAT check
    decided plus the simplex pivots it spent, where a query that extends
    the kept state of its hypotheses counts the pivots that built that
    state as if it had built it.  A reproducible cost proxy: unlike
    wall-clock time it is a pure function of the queries, independent of
    machine load, cache temperature and the queries decided before. *)
val work_total : int ref

(** Empty the result cache ({!clear_cache}), drop the kept state of
    the last hypotheses ({!Dpll.forget_base}) and reset the per-run
    instrumentation counters of {!Dpll}, {!Theory}, {!Simplex} and
    {!Lia}.  Does {e not} reset the cumulative {!stats} or
    {!work_total}, which consumers read as before/after deltas. *)
val reset_run_state : unit -> unit

(** The relevance index of a hypothesis set and its [kept] facts, built
    once and shared by every goal posed against them: the components
    of the non-ground hypotheses under "shares a variable",
    transitively. *)
type index

(** [index ~kept hyps] indexes [hyps], the hypotheses subject to
    relevance pruning, and [kept] (typically path guards), which are
    exempt from it. *)
val index : ?kept:Pred.t list -> Pred.t list -> index

(** [relevant idx goal]: the indices, increasing, of the hypotheses
    relevance pruning retains for [goal] — the ground ones, plus every
    one sharing a variable, transitively, with [Pred.conj (goal ::
    kept)] (none when that conjunction is [ff]). *)
val relevant : index -> Pred.t -> int list

(** A pruned implication query: the interned cache key plus
    [pruned_idx], [relevant idx goal].  A verdict can only depend on
    retained hypotheses, which lets incremental callers skip re-checks
    when none of them changed. *)
type prepared = private { query : Pred.t; pruned_idx : int list }

(** [prepare idx goal] builds the query for [kept /\ hyps => goal], that
    is [Pred.conj (Pred.not_ goal :: retained @ kept)].  Pruning seeds
    from the goal and the [kept] facts: hypotheses sharing no variable,
    transitively, with either are dropped (sound: dropping hypotheses
    only makes implications harder), and [kept] facts are never
    dropped. *)
val prepare : index -> Pred.t -> prepared

(** Decide a prepared query: the result cache first (a hit returns the
    stored answer, model included), then a SAT check. *)
val check_query : prepared -> result

(** [check_valid ?kept hyps goal] is [check_query (prepare (index ?kept
    hyps) goal)]. *)
val check_valid : ?kept:Pred.t list -> Pred.t list -> Pred.t -> result

(** Satisfiability of a formula ([Unknown] counts as satisfiable). *)
val is_sat : Pred.t -> bool
