(** Combined theory solver for QF-EUFLIA conjunctions: purification into
    {!Lia} constraints and {!Cc} assertions, with a bounded Nelson–Oppen
    equality exchange.  [Unknown] must be treated as "possibly
    satisfiable". *)

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
    ({!clean_label}) and under the entities' {e original} labels
    (alpha-renaming suffixes intact, internal names included).  Display
    labels are lossy — distinct solver variables can collide on one —
    so callers that {e evaluate} predicates under a model read the raw
    one. *)
type result = Sat of model * model | Unsat | Unknown

(** Display form of an entity label: [None] for internal ('%'-prefixed)
    names and non-measure application proxies; strips alpha-renaming
    [#N] suffixes and renders the value variable [VV] as [v]. *)
val clean_label : string -> string option

(** Decide the conjunction of the given signed atoms ([(p, false)]
    asserts the negation of [p]).  Non-atomic predicates are rejected
    with [Invalid_argument]. *)
val check_sat : (Pred.t * bool) list -> result
