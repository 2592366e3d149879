(** Syntactic binding lints (L003 unused, L004 shadowed) over the source
    (pre-ANF) program. *)

open Liquid_lang

val analyze : Ast.program -> Diagnostic.t list
