(** Gradual liquid mode: residual obligations as runtime-checked casts.
    See gradual.mli for the subsystem overview. *)

open Liquid_common
open Liquid_logic
open Liquid_lang
open Liquid_infer
open Liquid_smt
module Explain = Liquid_explain.Explain
module Eval = Liquid_eval.Eval

type residual = {
  rc_id : string;
  rc_origin : Constr.origin;
  rc_goal : Pred.t;
  rc_count : int;
  rc_witness : (string * Solver.cex_value) list;
  rc_explanation : Explain.explanation;
}

type verdict = Safe | Safe_modulo of int | Unsafe

(* Content-addressed identity: the digest covers exactly what the report
   prints (span, reason, goal rendering), none of it schedule-dependent —
   sub_ids and κ numbers restart per run but can shift under partitioning,
   so they stay out of the digest. *)
let residual_id (o : Constr.origin) (goal : Pred.t) : string =
  let payload =
    Fmt.str "%a|%s|%a" Loc.pp o.Constr.loc o.Constr.reason Pred.pp goal
  in
  "r-" ^ String.sub (Digest.to_hex (Digest.string payload)) 0 12

let verdict_of ~errors ~residuals =
  if errors > 0 then Unsafe
  else if residuals > 0 then Safe_modulo residuals
  else Safe

let pp_verdict ppf = function
  | Safe -> Fmt.string ppf "SAFE"
  | Safe_modulo n -> Fmt.pf ppf "SAFE_MODULO %d" n
  | Unsafe -> Fmt.string ppf "UNSAFE"

(* -- Classification ---------------------------------------------------- *)

let classify ~(wfs : Constr.wf list) ~(subs : Constr.sub list)
    ~(solution : Constr.solution) ~(quals : Qualifier.t list)
    ~(consts : int list) (failures : (Fixpoint.failure * int) list) :
    residual list * (Fixpoint.failure * int * Explain.explanation) list =
  let all =
    List.sort
      (fun ((a : Fixpoint.failure), _) (b, _) ->
        compare a.Fixpoint.f_sub_id b.Fixpoint.f_sub_id)
      failures
  in
  (* One explain pass over everything: every obligation — hard error or
     residual — carries a core, blame path, and verified repair hint. *)
  let exr =
    Explain.explain ~limit:(List.length all) ~wfs ~subs ~solution ~quals
      ~consts all
  in
  let residuals, hard =
    List.fold_left2
      (fun (rs, hs) ((f : Fixpoint.failure), count) (ex : Explain.explanation) ->
        if ex.Explain.ex_refuted then
          (* The environment entails ¬goal under the final solution: the
             solution only ever weakens, so this stays refuted however
             much annotation is added — a hard error, not a cast. *)
          (rs, (f, count, ex) :: hs)
        else
          let r =
            {
              rc_id = residual_id f.Fixpoint.f_origin f.Fixpoint.f_goal;
              rc_origin = f.Fixpoint.f_origin;
              rc_goal = f.Fixpoint.f_goal;
              rc_count = count;
              rc_witness = f.Fixpoint.f_cex;
              rc_explanation = ex;
            }
          in
          (r :: rs, hs))
      ([], []) all exr.Explain.exs
  in
  (List.rev residuals, List.rev hard)

(* -- Process boundaries ------------------------------------------------ *)

let rehash (rs : residual list) : residual list =
  let go = Pred.rehasher () in
  let exs =
    (Explain.rehash
       { Explain.exs = List.map (fun r -> r.rc_explanation) rs; skipped = 0 })
      .Explain.exs
  in
  List.map2
    (fun r ex -> { r with rc_goal = go r.rc_goal; rc_explanation = ex })
    rs exs

(* -- Printing ---------------------------------------------------------- *)

let pp_residual ppf (r : residual) =
  Fmt.pf ppf "@[<v>%s at %a: %s" r.rc_id Loc.pp r.rc_origin.Constr.loc
    r.rc_origin.Constr.reason;
  if r.rc_count > 1 then Fmt.pf ppf " (×%d)" r.rc_count;
  Fmt.pf ppf "@,  residual cast: %a" Pred.pp r.rc_goal;
  (match r.rc_witness with
  | [] -> ()
  | w -> Fmt.pf ppf "@,  witness: %a" Explain.pp_witness w);
  (match r.rc_explanation.Explain.ex_repair with
  | None -> ()
  | Some rp ->
      Fmt.pf ppf
        "@,  repair hint: adding qualifier `%a` to k%d at %a would discharge \
         this cast"
        Pred.pp rp.Explain.rp_pred rp.Explain.rp_kvar Loc.pp rp.Explain.rp_loc);
  Fmt.pf ppf "@]"

(* -- Runtime casts ----------------------------------------------------- *)

type cast_status =
  | Held of int
  | Failed of { checks : int; detail : string }
  | Unreached

type run_report = {
  rr_finished : bool;
  rr_halt : string option;
  rr_casts : (residual * cast_status) list;
}

(* A runtime check is credited to a cast when the two spans coincide or
   one encloses the other: the residual's span is the obligation site
   (the assert node, the primitive application, a function body), and
   the dynamic span is the exact checking expression within it. *)
let span_matches (armed : Loc.t) (dyn : Loc.t) =
  (not (Loc.is_dummy armed))
  && (not (Loc.is_dummy dyn))
  && (Loc.compare armed dyn = 0 || Loc.contains armed dyn
     || Loc.contains dyn armed)

let run_casts ?fuel ?quiet (rs : residual list) (prog : Ast.program) :
    run_report =
  let arr = Array.of_list rs in
  let n = Array.length arr in
  let checks = Array.make n 0 in
  let fail_detail = Array.make n None in
  let check loc (kind : Eval.check_kind) ~ok ~detail =
    let matched = ref false in
    Array.iteri
      (fun i r ->
        if span_matches r.rc_origin.Constr.loc loc then begin
          matched := true;
          checks.(i) <- checks.(i) + 1;
          if (not ok) && fail_detail.(i) = None then
            fail_detail.(i) <- Some detail
        end)
      arr;
    (* Recover only a failed assertion inside an armed span: the cast
       absorbs the failure and reports it.  Unarmed failures keep their
       ordinary semantics. *)
    (not ok) && kind = Eval.Check_assert && !matched
  in
  let finished, halt =
    match Eval.run_program ?fuel ?quiet ~check prog with
    | _env -> (true, None)
    | exception Eval.Assertion_failure loc ->
        ( false,
          Some
            (Fmt.str "assertion failed at %a (outside any armed cast)" Loc.pp
               loc) )
    | exception Eval.Bounds_violation msg -> (false, Some msg)
    | exception Eval.Runtime_error msg -> (false, Some msg)
    | exception Eval.Out_of_fuel -> (false, Some "out of fuel")
  in
  let casts =
    List.mapi
      (fun i r ->
        let st =
          match fail_detail.(i) with
          | Some detail -> Failed { checks = checks.(i); detail }
          | None -> if checks.(i) > 0 then Held checks.(i) else Unreached
        in
        (r, st))
      rs
  in
  { rr_finished = finished; rr_halt = halt; rr_casts = casts }

let pp_cast_status ppf = function
  | Held n -> Fmt.pf ppf "held (%d check%s)" n (if n = 1 then "" else "s")
  | Failed { checks; detail } ->
      Fmt.pf ppf "FAILED after %d check%s: %s" checks
        (if checks = 1 then "" else "s")
        detail
  | Unreached -> Fmt.string ppf "unreached"

let pp_run_report ppf (r : run_report) =
  Fmt.pf ppf "@[<v>gradual run: %d cast%s armed" (List.length r.rr_casts)
    (if List.length r.rr_casts = 1 then "" else "s");
  List.iter
    (fun (rc, st) ->
      Fmt.pf ppf "@,  %s at %a: %a" rc.rc_id Loc.pp rc.rc_origin.Constr.loc
        pp_cast_status st)
    r.rr_casts;
  (match r.rr_halt with
  | None -> ()
  | Some why -> Fmt.pf ppf "@,  halted: %s" why);
  Fmt.pf ppf "@]"
