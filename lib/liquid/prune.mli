(** Qualifier-space pruning: a pre-fixpoint static analysis shrinking
    each κ's candidate set by sibling subsumption, over one persistent
    incremental solver context.  Pruning under-approximates the initial
    assignment; the reinstatement pass in {!Fixpoint.solve_unit}
    restores exactness of the final solution. *)

open Liquid_logic
module KMap = Constr.KMap

(** Per-κ facts for the subsumption probes: binding facts and guards of
    the κ's (first) wf environment, κ refinements read as ⊤. *)
val wf_facts : Constr.wf list -> Pred.t list KMap.t

(** The survivors of each κ's candidate list, in original candidate
    order: greedily, an instance implied under the κ's [wf_facts] by
    the conjunction of its surviving siblings is parked.  Only κs
    written by some constraint of [subs] are pruned (writerless κs are
    never weakened, so shrinking them could only lose precision).  The
    payload ['a] (qualifier provenance in the engine) is carried through
    untouched. *)
val analyze :
  wf_facts:Pred.t list KMap.t ->
  Constr.sub list ->
  (Pred.t * 'a) list KMap.t ->
  (Pred.t * 'a) list KMap.t
