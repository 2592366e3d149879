(* The reference the pre-fixpoint prune is held to: a program built into
   the constraint system the pipeline solves, and the check that the
   pruned whole-system solve reaches exactly what the unpruned engine
   ([Fixpoint.solve_unit] without prune facts) reaches. *)

open Liquid_logic
open Liquid_infer
module Pipeline = Liquid_driver.Pipeline
module KMap = Constr.KMap

(* A program as the pipeline solves it: its constraint system, its
   qualifier set (with the generated measure patterns) and its mined
   constants.  Solve it before building the next one: building loads
   the program's measures into the process-wide table, which the
   embedding reads. *)
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
  let anf = Liquid_anf.Anf.normalize_program prog in
  let info = Liquid_typing.Infer.infer_program ~decls anf in
  let out = Congen.generate info anf in
  {
    name;
    wfs = out.Congen.wfs;
    subs = out.Congen.subs;
    quals;
    consts = (if mine then Pipeline.mine_constants prog else []);
  }

let initial s = Fixpoint.init_assignment ~consts:s.consts s.quals s.wfs

(* The pruned solve must reach exactly the reference's solution — per κ,
   instances in the same order — and the same failures, with the same
   goals and counterexamples.  Returns the pruned solve's counters. *)
let check_reference s =
  let pruned = Fixpoint.solve ~quals:s.quals ~consts:s.consts s.wfs s.subs in
  let reference =
    Fixpoint.solve_unit ~base:KMap.empty ~init:(initial s) s.subs
  in
  Alcotest.(check bool)
    (s.name ^ ": same solution per κ")
    true
    (KMap.equal (List.equal Pred.equal) pruned.Fixpoint.solution
       (KMap.map (List.map fst) reference.Fixpoint.pr_solution));
  let failure (f : Fixpoint.failure) =
    (f.Fixpoint.f_sub_id, Pred.tag f.Fixpoint.f_goal, f.Fixpoint.f_cex)
  in
  Alcotest.(check bool)
    (s.name ^ ": same failures")
    true
    (List.map failure pruned.Fixpoint.failures
    = List.map (fun (_, f) -> failure f) reference.Fixpoint.pr_failures);
  pruned.Fixpoint.solver_stats
