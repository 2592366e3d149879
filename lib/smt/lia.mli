(** Linear integer arithmetic over the rational simplex: strict-inequality
    tightening, the GCD test on equalities, and bounded branch-and-bound.
    [Unknown] (budget or overflow) must be treated as "possibly
    satisfiable" — sound for a validity checker.  An [Unsat] found
    before any branching names the input constraints behind it. *)

type op = Le | Lt | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

(** [Unsat (Some ks)]: the constraints at positions [ks] of the input,
    increasing, are infeasible on their own — the one that
    normalization refutes, or the simplex's explanation of the root
    relaxation.  A conflict found only after branching has none. *)
type result = Sat of Rat.t array | Unsat of int list option | Unknown

val default_budget : int

(** Branch-and-bound nodes across all checks (instrumentation). *)
val nnodes_total : int ref

(** One constraint with integer coefficients divided by their GCD and
    a tightened right-hand side, all [Le] or [Eq]: [Some (Some c)];
    [Some None] if it has no variables and holds; [None] if it cannot
    hold (including the GCD test).  May raise {!Rat.Overflow}. *)
val normalize : cons -> cons option option

(** Decide a conjunction of integer constraints over variables
    [0 .. nvars-1].  [budget] bounds branch-and-bound nodes. *)
val check : ?budget:int -> nvars:int -> cons list -> result
