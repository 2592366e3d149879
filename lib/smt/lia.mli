(** Linear integer arithmetic over the rational simplex: strict-inequality
    tightening, the GCD test on equalities, and bounded branch-and-bound
    on a live tableau.  [Unknown] (budget or overflow) must be treated as
    "possibly satisfiable" — sound for a validity checker.  An [Unsat]
    names the constraints behind it. *)

type op = Le | Lt | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

(** [Unsat ks]: the constraints with sources [ks], increasing, are
    infeasible on their own over the integers — the one that
    normalization refutes, the simplex's explanation of the root
    relaxation, or the union of a branched node's two branches'
    explanations, less the branch bounds. *)
type result = Sat of Rat.t array | Unsat of int list | Unknown

(** Branch-and-bound nodes across all checks (instrumentation). *)
val nnodes_total : int ref

(** One constraint with integer coefficients divided by their GCD and
    a tightened right-hand side, all [Le] or [Eq]: [Some (Some c)];
    [Some None] if it has no variables and holds; [None] if it cannot
    hold (including the GCD test).  May raise {!Rat.Overflow}. *)
val normalize : cons -> cons option option

(** [add t k c] normalizes [c] and adds it to [t] with source [k]; a
    constraint that normalization refutes makes [t] infeasible with
    explanation [[k]].  May raise {!Rat.Overflow}. *)
val add : Simplex.t -> int -> cons -> unit

(** Branch and bound from [t], whose repair is the root: each branch
    adds its bound to a copy of the repaired tableau above it, the one
    toward zero first, and [t] keeps no branch bound.  The model values problem variables
    [0 .. nvars-1]; [Unknown] once the search exceeds 400 nodes, or on
    overflow. *)
val search : nvars:int -> Simplex.t -> result

(** Decide a conjunction of integer constraints over variables
    [0 .. nvars-1] on a fresh tableau, the sources of the constraints
    being their positions. *)
val check : nvars:int -> cons list -> result
