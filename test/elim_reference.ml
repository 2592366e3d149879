(* The reference the weakening engine is held to: a program built into
   the constraint system the pipeline solves, a naive Kleene solve of
   that system with a naive concrete pass, and the check that
   [Fixpoint.solve] reaches exactly what they reach. *)

open Liquid_smt
open Liquid_logic
open Liquid_infer
module Pipeline = Liquid_driver.Pipeline
module KMap = Constr.KMap

(* A program as the pipeline solves it: its constraint system, numbered
   as the pipeline numbers it, its qualifier set (with the generated
   measure patterns) and its mined constants.  Solve it before building
   the next one: building loads the program's measures into the
   process-wide table, which the embedding reads. *)
type system = {
  name : string;
  wfs : Constr.wf list;
  subs : Constr.sub list;
  quals : Qualifier.t list;
  consts : int list;
}

let system ?(mine = true) ?(quals = Qualifier.defaults) name src =
  let prog, decls = Pipeline.parse_program_decls ~name src in
  Measures.load decls;
  let quals =
    quals
    @ Qualifier.measure_defaults
        (List.map
           (fun (m : Liquid_lang.Ast.measure_decl) -> m.Liquid_lang.Ast.m_name)
           decls.Liquid_lang.Ast.measures)
  in
  Liquid_typing.Mltype.reset_vars ();
  let anf = Liquid_anf.Anf.normalize_program prog in
  let info = Liquid_typing.Infer.infer_program ~decls anf in
  Rtype.reset_kvars ();
  Constr.reset_subs ();
  Liquid_common.Gensym.reset_inst ();
  let out = Congen.generate info anf in
  {
    name;
    wfs = out.Congen.wfs;
    subs = out.Congen.subs;
    quals;
    consts = (if mine then Pipeline.mine_constants prog else []);
  }

let initial s = Fixpoint.init_assignment ~consts:s.consts s.quals s.wfs

(* The initial assignment as the solve starts from it, without the
   pattern names. *)
let initial_preds s = KMap.map (List.map fst) (initial s)

(* The naive solve: Kleene rounds over the whole system.  A round
   visits every κ constraint in order, re-embeds its antecedent under
   the current assignment ([Fixpoint.hypotheses]) and re-checks every
   instance of its κ, the conjunction first and then goal by goal;
   rounds repeat until one changes nothing.  It keeps none of the
   engine's dependency records, version stamps, tag skips or pool, so
   it holds all of them to an independent answer. *)
let naive s : Constr.solution =
  let assignment = ref (initial_preds s) in
  let lookup k = Constr.sol_find !assignment k in
  let weaken (c : Constr.sub) =
    match c.Constr.rhs with
    | Constr.Rconc _ -> false
    | Constr.Rkvar (k, theta) ->
        let current = lookup k in
        let hyps, kept = Fixpoint.hypotheses lookup c in
        let valid q = Solver.check_valid ~kept hyps q = Solver.Valid in
        let goal q = Pred.subst theta q in
        current <> []
        && (not (valid (Pred.conj (List.map goal current))))
        &&
        let retained = List.filter (fun q -> valid (goal q)) current in
        assignment := KMap.add k retained !assignment;
        List.length retained <> List.length current
  in
  let rec rounds () =
    if List.fold_left (fun changed c -> weaken c || changed) false s.subs
    then rounds ()
  in
  rounds ();
  !assignment

(* The naive concrete pass: every concrete obligation checked under
   [solution], as the engine's final pass checks it ([Fixpoint.hypotheses]
   and [Solver.check_valid]), each failure as its constraint id, goal
   and counterexample, in constraint order. *)
let naive_failures s solution =
  let lookup k = Constr.sol_find solution k in
  List.filter_map
    (fun (c : Constr.sub) ->
      match c.Constr.rhs with
      | Constr.Rkvar _ -> None
      | Constr.Rconc goal when Pred.equal goal Pred.tt -> None
      | Constr.Rconc goal -> (
          let hyps, kept = Fixpoint.hypotheses lookup c in
          let fail cex = Some (c.Constr.sub_id, Pred.tag goal, cex) in
          match Solver.check_valid ~kept hyps goal with
          | Solver.Valid -> None
          | Solver.Invalid cex -> fail cex.Solver.display
          | Solver.Unknown -> fail []))
    s.subs

(* [Fixpoint.solve] over the partition plan, whose units share one
   elimination state, must reach the naive solution, per κ with the
   instances in the same order, and the naive concrete pass's failures,
   goals and counterexamples included.  Returns the solve's counters. *)
let check_reference s =
  let solution = naive s in
  let solved =
    Fixpoint.solve ~quals:s.quals ~consts:s.consts s.wfs s.subs
      (Constr.partition_plan s.wfs s.subs)
  in
  Alcotest.(check bool)
    (Fmt.str "%s: same solution per κ as the naive solve" s.name)
    true
    (KMap.equal (List.equal Pred.equal) solved.Fixpoint.solution solution);
  let failure (f : Fixpoint.failure) =
    (f.Fixpoint.f_sub_id, Pred.tag f.Fixpoint.f_goal, f.Fixpoint.f_cex)
  in
  Alcotest.(check bool)
    (Fmt.str "%s: same failures as the naive concrete pass" s.name)
    true
    (List.map failure solved.Fixpoint.failures = naive_failures s solution);
  solved.Fixpoint.solver_stats
