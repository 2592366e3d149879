(** Hindley–Milner type inference (Algorithm W with levels) for NanoML:
    the first phase of the paper's three-phase inference.  Records the
    resolved ML type of every expression node; these shapes drive liquid
    template generation. *)

open Liquid_common
open Liquid_lang

exception Type_error of string * Loc.t

type result = {
  types : (int, Mltype.t) Hashtbl.t; (* expr id -> resolved ML type *)
  item_schemes : (Ident.t * Mltype.scheme) list; (* in program order *)
  ctors : (string, Mltype.t list * string) Hashtbl.t;
      (* constructor -> argument types, datatype name *)
}

(** Syntactic values (generalizable under the value restriction). *)
val is_value : Ast.expr -> bool

(** @raise Type_error on ill-typed programs.  [decls] supplies the
    constructor environment for programs with [type] declarations. *)
val infer_program : ?decls:Ast.decls -> Ast.program -> result

(** Resolved type of a node.
    @raise Invalid_argument if the node was not typed. *)
val type_of : result -> Ast.expr -> Mltype.t
