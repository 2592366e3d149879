(** Qualifier-space pruning: a static analysis over the initial
    candidate assignment, run after instantiation and before the
    weakening loop.

    Fixpoint cost is |instances| × constraints: every candidate at every
    κ is re-checked as the assignment weakens, yet many instances are
    statically redundant.  One rule shrinks each κ's set — only for κs
    some constraint of the unit actually writes (writerless κs are never
    weakened, so pruning them could only lose precision): a greedy
    deletion pass parks instances implied, under the κ's well-formedness
    facts, by the conjunction of the remaining siblings.  The surviving
    set has the same conjunctive meaning, so hypotheses instantiated from
    the κ are semantically unchanged; the parked instance is the
    {e weaker} side of each implication, which is exactly the kind that
    tends to survive weakening — the reinstatement pass in {!Fixpoint}
    restores it cheaply afterwards.

    Orientation twins need no rule here: {!Qualifier.instances_tagged}
    already collapses instances with equal {!Liquid_smt.Prop.normalize}
    forms at instantiation.

    The probes run against one persistent incremental solver context
    ({!Liquid_smt.Solver.ctx_assert}): each κ's facts are encoded once
    into a pushed frame, and every candidate probe is a small push /
    assert / check / pop against the accumulated clauses.

    Pruning is an {e under-approximation} of the initial assignment;
    exactness of the final solution is restored by the reinstatement
    pass (see {!Fixpoint.solve_unit}), justified by the greatest-solution
    property: any parked instance validated from below under the final
    pruned solution is a member of the full run's final solution. *)

open Liquid_logic
open Liquid_smt
module KMap = Constr.KMap
module ISet = Set.Make (Int)

(** Per-κ well-formedness facts for the subsumption probes: binding
    facts and guards of the κ's (first) wf environment, with κ
    refinements read as ⊤ — a sound weakening, since any fact derived
    without them holds a fortiori under the full environment. *)
let wf_facts (wfs : Constr.wf list) : Pred.t list KMap.t =
  List.fold_left
    (fun acc (wf : Constr.wf) ->
      match KMap.find_opt wf.Constr.wf_kvar acc with
      | Some _ -> acc
      | None ->
          let facts, guards =
            Constr.embed_env (fun _ -> []) wf.Constr.wf_env
          in
          KMap.add wf.Constr.wf_kvar (facts @ guards) acc)
    KMap.empty wfs

let analyze ~(wf_facts : Pred.t list KMap.t) (subs : Constr.sub list)
    (init : (Pred.t * 'a) list KMap.t) : (Pred.t * 'a) list KMap.t =
  let writers =
    List.fold_left
      (fun s c ->
        match Constr.writes c with Some k -> ISet.add k s | None -> s)
      ISet.empty subs
  in
  Solver.with_context (fun ctx ->
      (* [mapi] visits κs in increasing order: deterministic. *)
      KMap.mapi
        (fun k insts ->
          if not (ISet.mem k writers) then insts
          else begin
            Solver.ctx_push ctx;
            List.iter (Solver.ctx_assert ctx)
              (Option.value ~default:[] (KMap.find_opt k wf_facts));
            (* [present] shrinks as instances are parked, so each test is
               against the conjunction of the instances actually
               surviving — the surviving set keeps the conjunctive
               meaning.  Inconsistent facts entail every instance, so
               all but one are parked; reinstatement restores them. *)
            let present =
              ref (ISet.of_list (List.map (fun (p, _) -> Pred.tag p) insts))
            in
            let kept =
              List.filter
                (fun (p, _) ->
                  if ISet.cardinal !present <= 1 then true
                  else begin
                    Solver.ctx_push ctx;
                    List.iter
                      (fun (q, _) ->
                        if
                          Pred.tag q <> Pred.tag p
                          && ISet.mem (Pred.tag q) !present
                        then Solver.ctx_assert ctx q)
                      insts;
                    let r = Solver.ctx_entails ctx p in
                    Solver.ctx_pop ctx;
                    if r = Solver.Valid then begin
                      present := ISet.remove (Pred.tag p) !present;
                      false
                    end
                    else true
                  end)
                insts
            in
            Solver.ctx_pop ctx;
            kept
          end)
        init)
