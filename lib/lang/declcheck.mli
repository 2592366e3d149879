(** Semantic validation of [type]/[measure] declarations: duplicate or
    reserved names, unknown types/constructors, equation arity and
    totality, and structural recursion of measure bodies.  Reported as
    structured diagnostics with precise spans, never exceptions. *)

open Liquid_common

type diag = { code : string; message : string; loc : Loc.t }

(** All problems of a declaration unit, in source order. *)
val check : Ast.decls -> diag list
