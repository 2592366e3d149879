(** Lazy-SMT search: DPLL over the propositional abstraction with theory
    checks at propositional models, unsat-core-minimized blocking
    clauses, and a propagation-only fast path. *)

(** [Sat (display, raw)]: a counterexample assignment (label -> value)
    under display labels and under original labels (see
    {!Theory.result}).  Boolean program variables ([Bvar] atoms) are
    valued from the propositional assignment; arithmetic entities from
    the theory model. *)
type result = Sat of Theory.model * Theory.model | Unsat | Unknown

(** Propositional models enumerated across all queries
    (instrumentation). *)
val models_total : int ref

(** Satisfiability of a quantifier-free EUFLIA predicate. *)
val check_sat : Liquid_logic.Pred.t -> result
