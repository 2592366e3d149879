(** Lazy-SMT search: DPLL over the propositional abstraction with theory
    checks at propositional models, blocking clauses from conflict cores
    (the theory's explanation of each conflict), and a propagation-only
    fast path.  Each check extends a repaired theory
    state: the forced literals' state extends the state of the query's
    hypotheses, kept for the next query over the same ones, and each
    model's state extends the forced one. *)

(** [Sat (display, raw)]: a counterexample assignment (label -> value)
    under display labels and under original labels (see
    {!Theory.answer}).  Boolean program variables ([Bvar] atoms) are
    valued from the propositional assignment; arithmetic entities from
    the theory model. *)
type result = Sat of Theory.model * Theory.model | Unsat | Unknown

(** Propositional models enumerated across all queries
    (instrumentation). *)
val models_total : int ref

(** Satisfiability of a quantifier-free EUFLIA predicate, and the work
    units it cost: the literals of every conjunction the theory decided,
    plus the pivots spent, the pivots that built a kept base state
    counted as if it had been built for this query.  The answer, model
    included, and the work are functions of the predicate alone. *)
val check_sat : Liquid_logic.Pred.t -> result * int

(** Drop the kept base state. *)
val forget_base : unit -> unit
