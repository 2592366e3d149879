(** General simplex for linear rational arithmetic (Dutertre & de Moura,
    CAV'06): decides conjunctions of [e <= c] / [e >= c] / [e = c] over
    the rationals and produces a model on success.  Terminating via
    Bland's rule.  Its pivot sequence, models and overflows are those of
    the map-based tableau in [test/simplex_reference.ml]. *)

type op = Le | Ge | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

val cons : Linexp.t -> op -> Rat.t -> cons

(** Pivots performed across all solves (instrumentation; the natural
    unit of simplex work). *)
val npivots : int ref

(** Decide a conjunction over variables [0 .. nvars-1].  May raise
    {!Rat.Overflow} on coefficient blowup (callers treat as unknown). *)
val solve : nvars:int -> cons list -> [ `Sat of Rat.t array | `Unsat ]
