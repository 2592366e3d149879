(** Combined theory solver for QF-EUFLIA conjunctions: purification into
    {!Lia} constraints and {!Cc} assertions, with a bounded Nelson–Oppen
    equality exchange.  [Unknown] must be treated as "possibly
    satisfiable".  An [Unsat] answer names the literals behind it when
    the arithmetic explains its conflict without a congruence-derived
    equality. *)

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

(** [Sat (display, raw)]: a satisfying model under display labels
    ({!display_labels}) and under the entities' {e original} labels
    (alpha-renaming suffixes intact, internal names included).  Display
    labels are lossy — distinct solver variables can collide on one —
    so callers that {e evaluate} predicates under a model read the raw
    one.

    [Unsat (Some is)]: the literals at positions [is] of the input,
    increasing, are unsat on their own.  It is the arithmetic's
    explanation, with proxy definitions, which always hold, dropped; an
    explanation that leans on a congruence-derived equality is dropped
    whole ([Unsat None]), and so is a congruence conflict.  A
    disequality split explains its conflict by both branches'
    explanations. *)
type result = Sat of model * model | Unsat of int list option | Unknown

(** The entries of a raw model whose labels have a display form,
    relabelled, in the same order: internal ('%'-prefixed) names and
    non-measure application proxies are dropped, alpha-renaming [#N]
    suffixes stripped, and the value variable [VV] renders as [v]. *)
val display_labels : model -> model

(** Decide the conjunction of the given signed atoms ([(p, false)]
    asserts the negation of [p]).  Non-atomic predicates are rejected
    with [Invalid_argument]. *)
val check_sat : (Pred.t * bool) list -> result
