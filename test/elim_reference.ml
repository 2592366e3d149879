(* The references model-based elimination is held to: a program built
   into the constraint system the pipeline solves, a naive Kleene
   solve of that system, and the check that the pooled solve reaches
   exactly what the pool-free engine ([Fixpoint.solve_unit] without
   [~elim]) and the naive solve reach. *)

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

(* Counters of one [check_reference]: the pooled solve over the
   partition plan, and the pool-free reference. *)
type counters = { pooled : Fixpoint.stats; reference : Fixpoint.stats }

(* The naive solve must reach the pool-free reference's solution, and
   the pooled solve ([Fixpoint.solve] over the partition plan, whose
   units share one elimination state) the same solution and the same
   failures, with the same goals and counterexamples.  Solutions are
   compared per κ, instances in the same order. *)
let check_reference s =
  let reference, reference_stats =
    Fixpoint.solve_unit ~base:KMap.empty ~init:(initial_preds s) s.subs
  in
  let solution = reference.Fixpoint.pr_solution in
  let same_solution what sol =
    Alcotest.(check bool)
      (Fmt.str "%s: %s, same solution per κ" s.name what)
      true
      (KMap.equal (List.equal Pred.equal) sol solution)
  in
  same_solution "naive" (naive s);
  let pooled =
    Fixpoint.solve ~quals:s.quals ~consts:s.consts s.wfs s.subs
      (Constr.partition_plan s.wfs s.subs)
  in
  same_solution "pooled" pooled.Fixpoint.solution;
  let failure (f : Fixpoint.failure) =
    (f.Fixpoint.f_sub_id, Pred.tag f.Fixpoint.f_goal, f.Fixpoint.f_cex)
  in
  Alcotest.(check bool)
    (Fmt.str "%s: pooled, same failures" s.name)
    true
    (List.map failure pooled.Fixpoint.failures
    = List.map failure reference.Fixpoint.pr_failures);
  { pooled = pooled.Fixpoint.solver_stats; reference = reference_stats }
