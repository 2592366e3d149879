(** The semantic-lint pass: orchestrates the individual analyses over the
    byproducts of liquid inference and returns diagnostics in report
    order.

    Inputs are what the pipeline already computes: the parsed (pre-ANF)
    program, the conditionals recorded by constraint generation, the
    well-formedness constraints, the final κ-solution, and the
    qualifier patterns and mined constants the run was solved with. *)

open Liquid_common
open Liquid_logic
open Liquid_lang
open Liquid_infer
module SSet = Fixpoint.SSet

(** L005: qualifier patterns whose every instance was pruned.  The
    location is the pattern's declaration (dummy for programmatically
    built qualifiers). *)
let dead_qualifier_diags ~(quals : Qualifier.t list) (dead : string list) :
    Diagnostic.t list =
  List.map
    (fun name ->
      let loc =
        match List.find_opt (fun q -> q.Qualifier.name = name) quals with
        | Some q -> q.Qualifier.loc
        | None -> Loc.dummy
      in
      Diagnostic.make Diagnostic.Dead_qualifier loc
        (Fmt.str
           "dead qualifier %s: every instance was pruned from every \
            inferred refinement"
           name))
    dead

(* Patterns with an instance in [initial], the run's initial
   assignment, none of whose instances survived into [final]. *)
let dead_qualifiers ~(initial : Fixpoint.candidates) ~(final : Constr.solution)
    : string list =
  let all, live =
    Constr.KMap.fold
      (fun k insts acc ->
        let survivors = Constr.sol_find final k in
        List.fold_left
          (fun (all, live) (p, names) ->
            ( SSet.union names all,
              if List.exists (Pred.equal p) survivors then SSet.union names live
              else live ))
          acc insts)
      initial (SSet.empty, SSet.empty)
  in
  SSet.elements (SSet.diff all live)

let run ~(source : Ast.program) ~(branches : Congen.branch list)
    ~(wfs : Constr.wf list) ~(solution : Constr.solution)
    ~(quals : Qualifier.t list) ~(consts : int list) : Diagnostic.t list =
  (* The solve keeps plain predicates, so the provenance of L005 is
     instantiated again here: the same instances at every κ, now with
     their pattern names. *)
  let dead =
    dead_qualifiers
      ~initial:(Fixpoint.init_assignment ~consts quals wfs)
      ~final:solution
  in
  List.sort Diagnostic.compare
    (Bindings.analyze source
    @ Reachability.analyze ~solution branches
    @ dead_qualifier_diags ~quals dead)

let warnings (ds : Diagnostic.t list) : Diagnostic.t list =
  List.filter Diagnostic.is_warning ds
