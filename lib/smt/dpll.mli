(** Lazy-SMT search: DPLL over the propositional abstraction with theory
    checks at propositional models, blocking clauses from conflict cores
    (the theory's explanation, or a bisection when it has none), and a
    propagation-only fast path.  Each check extends a repaired theory
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

(** [shrink_core ~unsat lits] shrinks [lits], which [unsat] holds
    unsat, to a core: the one the greedy deletion filter keeps (drop
    each literal in turn while the kept ones, newest first, plus the
    rest stay unsat), found by binary search over suffixes in about
    log2 n [unsat] calls per core literal.  The core comes back newest
    kept first.  It is the filter's core whenever [unsat] is monotone
    (a superset of an unsat list is unsat). *)
val shrink_core : unsat:('a list -> bool) -> 'a list -> 'a list
