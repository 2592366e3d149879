(** Gradual liquid mode: residual obligations as runtime-checked casts.

    Per {e Gradual Liquid Type Inference} (Vazou, Tanter, Van Horn), an
    obligation the fixpoint cannot discharge need not be a hard error:
    unless the environment outright {e refutes} it (a concrete
    counterexample model exists), it becomes a {!residual} — a cast the
    program must check at runtime.  The verdict turns into a spectrum:
    [SAFE] (no residuals), [SAFE_MODULO n] (statically safe modulo [n]
    runtime casts), [UNSAFE] (refuted obligations remain).

    Like the explain engine this runs {e post-fixpoint} on (solution,
    constraint system), so it composes with elimination, partitioning,
    incremental reuse, and daemon coalescing for free; classification
    reuses the explain engine wholesale, so every residual carries a
    hypothesis core, blame path, and solver-verified repair hint.

    Residual identity is content-addressed ({!residual_id}): a digest of
    the obligation's source span, reason, and goal rendering — stable
    across job counts, cache temperatures, and process boundaries, so
    residual reports are byte-identical however the run was solved. *)

open Liquid_logic
open Liquid_lang
open Liquid_infer
open Liquid_smt
module Explain = Liquid_explain.Explain

(** One residual cast: an obligation the fixpoint could not discharge
    but the environment does not refute, deferred to runtime. *)
type residual = {
  rc_id : string; (* deterministic content-addressed id, "r-…" *)
  rc_origin : Constr.origin; (* source span + reason *)
  rc_goal : Pred.t; (* the residual predicate, over ν and the scope *)
  rc_count : int; (* identical obligations folded into this cast *)
  rc_witness : (string * Solver.cex_value) list;
      (* falsifying values of the final static check, when available *)
  rc_explanation : Explain.explanation;
      (* hypothesis core, blame path, and verified repair hint *)
}

type verdict = Safe | Safe_modulo of int | Unsafe

(** Deterministic residual id: ["r-"] plus a truncated digest of the
    origin span, reason, and goal rendering. *)
val residual_id : Constr.origin -> Pred.t -> string

val verdict_of : errors:int -> residuals:int -> verdict
val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

(** Classify a run's failing obligations post-fixpoint.  [failures] are
    the deduplicated concrete-check failures (with fold counts).  Every
    obligation is fed through the explain engine; obligations the
    environment refutes outright stay hard errors (returned with their
    explanations), everything else becomes a residual.  Both lists come
    back in original constraint order. *)
val classify :
  wfs:Constr.wf list ->
  subs:Constr.sub list ->
  solution:Constr.solution ->
  quals:Qualifier.t list ->
  consts:int list ->
  (Fixpoint.failure * int) list ->
  residual list * (Fixpoint.failure * int * Explain.explanation) list

(** Re-intern residuals that crossed a process boundary (disk cache,
    scheduler pipe, daemon socket); see {!Pred.rehasher}. *)
val rehash : residual list -> residual list

val pp_residual : Format.formatter -> residual -> unit

(** {1 Runtime casts}

    Residuals lowered to runtime checks over the reference interpreter:
    the program runs with every residual's span {e armed}, and each
    runtime safety check landing inside an armed span is credited to its
    cast.  A failed armed assertion is {e absorbed} (the cast reports
    the failure and execution continues); a failed armed bounds check is
    reported but still halts — there is no value to continue with. *)

type cast_status =
  | Held of int (* checked [n] times at runtime, every check passed *)
  | Failed of { checks : int; detail : string }
      (* at least one runtime check failed; [checks] counts all of them *)
  | Unreached (* no runtime check landed in the armed span *)

type run_report = {
  rr_finished : bool; (* evaluation ran to completion *)
  rr_halt : string option; (* why evaluation stopped early, when it did *)
  rr_casts : (residual * cast_status) list; (* in residual order *)
}

(** Run [prog] (the {e pre-ANF} source program, as [dsolve --run] does)
    with the given residuals armed. *)
val run_casts :
  ?fuel:int -> ?quiet:bool -> residual list -> Ast.program -> run_report

val pp_cast_status : Format.formatter -> cast_status -> unit
val pp_run_report : Format.formatter -> run_report -> unit
