(** Combined theory solver for QF-EUFLIA conjunctions: purification into
    {!Lia} constraints and {!Cc} assertions, combined by splitting on the
    candidate pairs the arithmetic model leaves equal.  [Unknown]
    (overflow, or the branch-and-bound budget) must be treated as
    "possibly satisfiable".

    The solver is a {!state} that grows: literals are asserted into it,
    the state is repaired, and a repaired state can be copied and
    extended by more literals, so conjunctions that share literals share
    the work of asserting and repairing them.  {!check_sat} is a fresh
    state through the same code.  An [Unsat] answer names the literals
    behind it. *)

open Liquid_logic

(** Total literals processed across all calls (instrumentation; prices
    each check by the size of the conjunction it decides). *)
val nlits_total : int ref

(** A counterexample value: integer entities keep their magnitude,
    boolean-sorted entities render as booleans. *)
type value = Vint of int | Vbool of bool

(** A counterexample assignment: display label -> value. *)
type model = (string * value) list

val pp_value : Format.formatter -> value -> unit

(** A signed atom: [(p, false)] asserts the negation of [p]. *)
type lit = Pred.t * bool

(** [Sat (display, raw)]: a satisfying model under display labels
    ({!display_labels}) and under the entities' {e original} labels
    (alpha-renaming suffixes intact, internal names included).  Display
    labels are lossy — distinct solver variables can collide on one —
    so callers that {e evaluate} predicates under a model read the raw
    one.  The model respects congruence: where it gives the arguments
    of two applications of one symbol equal values, it gives the
    applications equal values.

    [Unsat core]: literals that are unsat on their own, up to the
    branch-and-bound budget (a subset can lack the bounds that made the
    whole list decidable).  It is the arithmetic's explanation, with
    proxy definitions, which always hold, dropped and each
    congruence-derived equality replaced by the literals of its proof,
    or the congruence closure's explanation of its conflict; a
    disequality split or a congruence split explains its conflict by
    both branches' explanations. *)
type 'core answer = Sat of model * model | Unsat of 'core | Unknown

(** A {!check_sat} answer: an explanation names literals by their
    positions in the input, increasing. *)
type result = int list answer

(** The entries of a raw model whose labels have a display form,
    relabelled, in the same order: internal ('%'-prefixed) names and
    non-measure application proxies are dropped, alpha-renaming [#N]
    suffixes stripped, and the value variable [VV] renders as [v]. *)
val display_labels : model -> model

(** The entities, the congruence closure, one tableau and the literals
    asserted so far. *)
type state

(** A state without literals. *)
val create : unit -> state

(** An independent copy, to extend without touching the original. *)
val copy : state -> state

(** Purify the literals into the state and queue their constraints; a
    [True] or [False] literal that cannot hold refutes the state.
    Non-atomic predicates are rejected with [Invalid_argument]. *)
val assert_lits : state -> lit list -> unit

(** Install the queued constraints and repair the tableau.  A state
    that overflows here, or while asserting, answers [Unknown], and so
    does every copy of it. *)
val repair : state -> unit

(** Decide the conjunction of the literals asserted: the state is
    repaired, then the CC-derived equalities join it and its root is
    repaired again; if that leaves it feasible, the disequality splits,
    branch and bound and the congruence splits run on copies of the
    repaired root.  The state can still be extended afterwards.  An
    explanation names literals, in the order the state asserted
    them. *)
val decide : state -> lit list answer

(** Decide the conjunction of the given signed atoms on a fresh
    state. *)
val check_sat : lit list -> result
