(** Error explanation for failed verification runs: minimal hypothesis
    cores, source-located blame paths through the κ-dependency graph,
    concrete witnesses, and verified repair hints.

    Runs {e post-fixpoint} on per-unit state — the final solution and
    the constraint system — so it composes with every way a solve is
    served; all searches are deterministic (candidates in construction
    order, writers in [sub_id] order), making explanations
    byte-identical across cache replays and process boundaries. *)

open Liquid_common
open Liquid_logic
open Liquid_infer
open Liquid_smt

(** One fact of a minimal hypothesis core, with its provenance: the
    environment binder that contributed it ([None] for guards and
    left-hand-side facts) and the κ whose solution instance it is
    ([None] for static refinement parts and measure axioms). *)
type core_hyp = {
  ch_pred : Pred.t;
  ch_binder : Ident.t option;
  ch_kvar : Rtype.kvar option;
}

(** One step of a blame path: a κ and the program points whose
    constraints weakened it ([sub_id] order, deduplicated by span and
    reason). *)
type blame_step = { bs_kvar : Rtype.kvar; bs_origins : Constr.origin list }

(** A verified repair hint: adding qualifier instance [rp_pred] to the
    blamed κs (every blamed κ where it is well-formed, as a qualifier
    file would) both discharges the failing obligation and survives
    every constraint that weakens those κs — so a qualifier file
    containing the instance makes the obligation verify.  [rp_kvar] is
    the most proximate blamed κ, [rp_loc] where it is constrained. *)
type repair = { rp_kvar : Rtype.kvar; rp_pred : Pred.t; rp_loc : Loc.t }

type explanation = {
  ex_origin : Constr.origin;
  ex_goal : Pred.t;
  ex_count : int; (* identical failures folded into this one *)
  ex_witness : (string * Solver.cex_value) list;
  ex_refuted : bool;
      (* the environment refutes the goal outright; the core is then
         deletion-minimal (dropping any member loses the refutation).
         Otherwise the core is the relevance-retained hypothesis set —
         the only facts the verdict can depend on. *)
  ex_core : core_hyp list;
  ex_blame : blame_step list;
  ex_repair : repair option;
  ex_unexplained : string option;
      (* set (e.g. "originating constraint unavailable") when no
         core/blame/repair was computed; the witness, if any, is still
         reported *)
}

type result = {
  exs : explanation list;
  skipped : int; (* failures beyond [limit], not explained *)
}

(** Explain (at most [limit], default 5, of) the deduplicated failures
    of a run.  [solution] is the final fixpoint assignment; [quals] and
    [consts] are the run's qualifier patterns and mined constants (the
    repair search instantiates them, plus the default patterns as
    near-misses).  Each failure carries the count of identical failures
    folded into it. *)
val explain :
  ?limit:int ->
  wfs:Constr.wf list ->
  subs:Constr.sub list ->
  solution:Constr.solution ->
  quals:Qualifier.t list ->
  consts:int list ->
  (Fixpoint.failure * int) list ->
  result

(** Re-intern a result that crossed a process boundary (scheduler pipe,
    disk cache, daemon socket); see {!Pred.rehasher}. *)
val rehash : result -> result

val pp_witness : Format.formatter -> (string * Solver.cex_value) list -> unit
val pp_explanation : Format.formatter -> explanation -> unit
