(** General simplex for linear rational arithmetic (Dutertre & de Moura,
    CAV'06): decides conjunctions of [e <= c] / [e >= c] / [e = c] over
    the rationals and produces a model on success, or explains an
    infeasible conjunction.  A constraint over one variable is a bound on
    it; the constraints over a linear form of two or more variables share
    one slack row.  Terminating via Bland's rule.

    One tableau serves one-shot and incremental use.  Constraints can be
    added after a {!check} has repaired the tableau, and {!copy} branches
    it; {!solve} is the one-shot use, whose pivot sequence, models and
    overflows are those of the map-based tableau in
    [test/simplex_reference.ml], which installs the same way.  After
    {!Rat.Overflow} a tableau must be dropped. *)

type op = Le | Ge | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

val cons : Linexp.t -> op -> Rat.t -> cons

(** Pivots performed across all tableaux (instrumentation; the natural
    unit of simplex work). *)
val npivots : int ref

(** A tableau, over problem variables numbered by the caller from 0. *)
type t

(** An empty tableau. *)
val create : unit -> t

(** An independent copy. *)
val copy : t -> t

(** [ensure t n] gives every problem variable below [n] a column, in
    increasing order.  A constraint does the same for the variables it
    names. *)
val ensure : t -> int -> unit

(** [add t k c] adds constraint [c] with source [k], which explanations
    name.  A bound that excludes the value of a nonbasic variable moves
    it there; a new linear form gets a slack row over the nonbasic
    variables.  Two bounds that clash, or a constraint without variables
    that fails, make the tableau infeasible; an infeasible tableau
    ignores later constraints.  May raise {!Rat.Overflow}. *)
val add : t -> int -> cons -> unit

(** [refute t ks] makes [t] infeasible with explanation [ks], unless it
    already is. *)
val refute : t -> int list -> unit

(** Repair [t]: [`Unsat ks] names, increasing, the sources of
    constraints that are infeasible on their own (two bounds that clash,
    a constraint without variables that fails, or the violated bound of
    a row no pivot can repair with the bounds its variables sit at).
    The answer sticks: an infeasible tableau stays so.  May raise
    {!Rat.Overflow}. *)
val check : t -> [ `Sat | `Unsat of int list ]

(** The value of a problem variable after a [`Sat] check; zero for a
    variable no constraint names. *)
val value : t -> int -> Rat.t

(** Decide a conjunction over variables [0 .. nvars-1] on a fresh
    tableau, problem variables first, the sources of the constraints
    being their positions.  May raise {!Rat.Overflow} on coefficient
    blowup (callers treat as unknown). *)
val solve : nvars:int -> cons list -> [ `Sat of Rat.t array | `Unsat of int list ]
