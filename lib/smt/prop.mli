(** Propositional abstraction: Tseitin CNF over canonicalized theory
    atoms.  Atoms occupy variable ids [0 .. natoms-1]; Tseitin definition
    variables follow. *)

open Liquid_logic

(** [v+1] (positive) or [-(v+1)] (negative) for variable [v]. *)
type lit = int

type clause = lit list

type cnf = {
  clauses : clause list;
  natoms : int;
  atoms : Pred.t array; (* atom of each theory variable *)
  root : lit; (* literal equivalent to the whole formula *)
}

(** Canonicalize an atom ([Gt]/[Ge] swapped, [Ne] as negated oriented
    [Eq]); returns the canonical atom and the polarity.  Memoized per
    interned atom. *)
val canon : Pred.t -> Pred.t * bool

(** Orientation-normal form of a predicate: every atom canonicalized
    (negated verbatim on polarity flip), connective structure untouched.
    Predicates with equal normal forms are logically equivalent, and the
    property is stable under substitution.  A dedup {e key} only — never
    print or solve the result.  Memoized. *)
val normalize : Pred.t -> Pred.t

val of_pred : Pred.t -> cnf
