(** General simplex for linear rational arithmetic (Dutertre & de Moura,
    CAV'06): decides conjunctions of [e <= c] / [e >= c] / [e = c] over
    the rationals and produces a model on success, or explains an
    infeasible conjunction.  A constraint over one variable is a bound on
    it; the constraints over a linear form of two or more variables share
    one slack row.  Terminating via Bland's rule.  Its pivot sequence,
    models and overflows are those of the map-based tableau in
    [test/simplex_reference.ml], which installs the same way. *)

type op = Le | Ge | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

val cons : Linexp.t -> op -> Rat.t -> cons

(** Pivots performed across all solves (instrumentation; the natural
    unit of simplex work). *)
val npivots : int ref

(** Decide a conjunction over variables [0 .. nvars-1].  [`Unsat ks]
    names, by their positions in the list, increasing, constraints that
    are infeasible on their own: two bounds that clash, a constraint
    without variables that fails, or the violated bound of a row no
    pivot can repair with the bounds its variables sit at.  May raise
    {!Rat.Overflow} on coefficient blowup (callers treat as unknown). *)
val solve : nvars:int -> cons list -> [ `Sat of Rat.t array | `Unsat of int list ]
