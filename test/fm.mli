(** Fourier–Motzkin elimination over the rationals: an independent
    reference decision procedure used to cross-check {!Simplex}
    (differential testing).  Exponential; test-sized systems only. *)

open Liquid_smt

type cons = { exp : Linexp.t; op : [ `Le | `Lt ]; rhs : Rat.t }

val of_simplex : Simplex.cons -> cons list
val sat : cons list -> bool

(** Decide a {!Simplex}-style system over the rationals. *)
val solve : Simplex.cons list -> [ `Sat | `Unsat ]
