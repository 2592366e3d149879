(* The reference model-based elimination is held to: a program built
   into the constraint system the pipeline solves, and the check that
   the pooled solves reach exactly what the pool-free engine
   ([Fixpoint.solve_unit] without [~elim]) reaches. *)

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

(* Counters of one [check_reference]: the one-unit pooled solve, the
   per-unit pooled solve, and the pool-free reference. *)
type counters = {
  whole : Fixpoint.stats;
  per_unit : Fixpoint.stats;
  reference : Fixpoint.stats;
}

(* Both pooled solves must reach exactly the reference's solution — per
   κ, instances in the same order — and the same failures, with the
   same goals and counterexamples: [Fixpoint.solve], one unit with a
   fresh elimination state, and [Psolve.solve ~jobs:1] over the
   partition plan, whose units share one state. *)
let check_reference s =
  let reference =
    Fixpoint.solve_unit ~base:KMap.empty ~init:(initial s) s.subs
  in
  let failure (f : Fixpoint.failure) =
    (f.Fixpoint.f_sub_id, Pred.tag f.Fixpoint.f_goal, f.Fixpoint.f_cex)
  in
  let check what (r : Fixpoint.result) =
    Alcotest.(check bool)
      (Fmt.str "%s: %s, same solution per κ" s.name what)
      true
      (KMap.equal (List.equal Pred.equal) r.Fixpoint.solution
         (KMap.map (List.map fst) reference.Fixpoint.pr_solution));
    Alcotest.(check bool)
      (Fmt.str "%s: %s, same failures" s.name what)
      true
      (List.map failure r.Fixpoint.failures
      = List.map (fun (_, f) -> failure f) reference.Fixpoint.pr_failures);
    r.Fixpoint.solver_stats
  in
  let whole =
    check "one unit"
      (Fixpoint.solve ~quals:s.quals ~consts:s.consts s.wfs s.subs)
  in
  let per_unit =
    check "per unit"
      (Liquid_engine.Psolve.solve ~jobs:1 ~quals:s.quals ~consts:s.consts
         s.wfs s.subs
         (Constr.partition_plan s.wfs s.subs))
        .Liquid_engine.Psolve.ps_result
  in
  { whole; per_unit; reference = reference.Fixpoint.pr_stats }
