(** Elaboration of surface [measure] declarations into the measure table
    ({!Liquid_logic.Measure}).  Call {!load} once per run, after
    {!Liquid_lang.Declcheck} has accepted the declaration unit. *)

open Liquid_lang

(** Reset the measure table to the built-ins and register every declared
    measure, in source order. *)
val load : Ast.decls -> unit

(** Stable digest of the declaration unit (types and measures) for cache
    keys; [""] when there are no declarations. *)
val fingerprint : Ast.decls -> string
