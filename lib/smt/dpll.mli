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

(** Satisfiability of a CNF with an explicit variable → theory-atom map
    ([None]: Tseitin definition variable).  This is {!check_sat} with
    the encoding step factored out, for callers that keep a persistent
    clause set (the incremental assertion context in {!Solver}).
    [nvars] is a lower bound on the variable count (literals present in
    the clauses raise it). *)
val check_sat_cnf :
  nvars:int ->
  atoms:Liquid_logic.Pred.t option array ->
  Prop.clause list ->
  result
