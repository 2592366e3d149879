(** The measure table: structurally recursive ADT measures lifted to
    uninterpreted function symbols, one defining axiom per constructor.
    Generalizes the built-in list-length measure [llen] (the table's
    first entry); user measures register per run and reset between
    runs.  See the implementation header for the axiom-lowering rules
    ([max]/[min] become guarded linear cases). *)

(** Equation right-hand sides, with constructor arguments by position. *)
type body =
  | Cint of int
  | Carg of int (* integer-sorted constructor argument *)
  | Capp of string * int (* measure applied to the argument at a position *)
  | Cneg of body
  | Cadd of body * body
  | Csub of body * body
  | Cmul of body * body
  | Cmax of body * body
  | Cmin of body * body

type eqn = { ctor : string; arity : int; body : body }

type t = private {
  name : string;
  sym : Symbol.t;
  tycon : string;
  eqns : eqn list;
  nonneg : bool; (* provably [m v >= 0], by structural induction *)
  builtin : bool;
}

(** Register a user measure (declares its symbol as a measure).
    @raise Invalid_argument on duplicate names. *)
val register : name:string -> tycon:string -> eqn list -> t

(** Clear user measures, keeping the built-in entries ([llen], [len]). *)
val reset : unit -> unit

val find : string -> t option

(** All measures, registration order (built-ins first). *)
val all : unit -> t list

(** Measures over one datatype, registration order. *)
val measures_on : string -> t list

(** Built-in entries. *)
val llen : t

val len : t

(** [app name t] — apply a registered measure to an [Obj]-sorted term.
    @raise Invalid_argument if unknown. *)
val app : string -> Term.t -> Term.t

(** [m v >= 0] when the measure is provably non-negative. *)
val nonneg_fact : t -> Term.t -> Pred.t option

(** All axioms for one constructor application, over the measures of
    [tycon], registration order. *)
val ctor_axioms :
  tycon:string -> ctor:string -> value:Term.t -> args:Term.t option list -> Pred.t list

val pp_eqn : Format.formatter -> eqn -> unit
val pp : Format.formatter -> t -> unit
