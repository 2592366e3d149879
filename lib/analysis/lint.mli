(** The semantic-lint pass: run all analyses over the byproducts of
    liquid inference, returning diagnostics in report order. *)

open Liquid_lang
open Liquid_infer

(** [wfs], [quals] and [consts] are those the run was solved with: the
    dead-qualifier check (L005) instantiates [quals] at every κ again
    and reports the patterns none of whose instances survived into
    [solution]. *)
val run :
  source:Ast.program ->
  branches:Congen.branch list ->
  wfs:Constr.wf list ->
  solution:Constr.solution ->
  quals:Qualifier.t list ->
  consts:int list ->
  Diagnostic.t list

(** Only the diagnostics that gate [--warn-error]. *)
val warnings : Diagnostic.t list -> Diagnostic.t list
