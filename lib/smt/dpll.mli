(** Lazy-SMT search: DPLL over the propositional abstraction with theory
    checks at propositional models, unsat-core-minimized blocking
    clauses, and a propagation-only fast path. *)

type result = Sat | Unsat | Unknown

(** Counterexample assignment (label -> value) of the last [Sat]
    answer.  Boolean program variables ([Bvar] atoms) are valued from
    the propositional assignment; arithmetic entities from the theory
    model. *)
val last_model : Theory.model ref

(** Same assignment under original (uncleaned) labels; see
    {!Theory.last_model_raw}. *)
val last_model_raw : Theory.model ref

(** Propositional models enumerated across all queries
    (instrumentation). *)
val models_total : int ref

(** Satisfiability of a quantifier-free EUFLIA predicate. *)
val check_sat : Liquid_logic.Pred.t -> result
