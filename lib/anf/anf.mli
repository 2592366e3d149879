(** A-normalization and alpha-renaming.

    Produces programs where application arguments, operator operands,
    [if] conditions, container components, match scrutinees and assert
    operands are atoms (variables or constants), application spines are
    preserved, and every binder is globally unique. *)

open Liquid_lang

(** Reset the renaming counter (deterministic tests only). *)
val reset : unit -> unit

val is_atom : Ast.expr -> bool

val normalize_program : Ast.program -> Ast.program

(** Validity check used by tests. *)
val is_anf : Ast.expr -> bool
