(** Liquid constraint solving by predicate abstraction.

    This is the paper's [Solve]/[Weaken] fixpoint:

    1. every κ is initialized to the set of {e all} well-sorted qualifier
       instances over the variables in scope at its well-formedness
       constraint (the strongest liquid refinement);
    2. constraints with a κ right-hand side are repeatedly {e weakened}:
       any instance not implied by the constraint's antecedent (under the
       current assignment) is dropped, and constraints reading the changed
       κ are re-queued;
    3. on stabilization, constraints with {e concrete} right-hand sides
       (assertions, primitive preconditions, user annotations) are
       checked; failures are reported with their source origin.

    Implications are discharged by {!Liquid_smt.Solver}; an "unknown"
    verdict counts as "not valid" (sound: κs only get weaker, and concrete
    checks only fail more).

    The weakening loop compiles each constraint's antecedent once into
    static facts plus per-κ instantiation sites ({!compile_antecedent}),
    and records, per (constraint, instance), which κs the validating
    query's retained hypotheses came from.  On requeue, an instance is
    re-checked only if some κ it depends on has weakened since its last
    validation.  This skip is {e exact}, not just sound: relevance
    pruning is monotone, so weakening a κ outside the recorded
    dependency set leaves the instance's pruned query — and hence its
    verdict — byte-identical.  A second, finer skip on the interned tags
    of the retained hypotheses catches instances whose pruned query
    survives even though a dependency κ changed.

    The loop also runs {e model-based elimination}: a pool of
    counterexample models harvested from failing checks kills any
    pending instance whose prepared query a pooled model satisfies, with
    no solver contact, and a per-constraint bandit picks how each writer
    visit is decided.  Both live in an {!elim} value that {!solve}
    threads through every unit of a run.  The tests hold the engine to
    a naive Kleene solve that shares none of this machinery.

    The engine is organized around {e solve units} ({!Constr.partition}):
    the worklist, assignment fragment, compiled constraints and κ
    versions live in a per-unit record created by {!run_unit}, never in
    module globals.  {!solve} runs one unit per κ-SCC in topological
    order, folding each unit's {!partial} into the run's solution. *)

open Liquid_common
open Liquid_logic
open Liquid_smt

module KMap = Constr.KMap
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)
module SSet = Set.Make (String)

type failure = {
  f_sub_id : int; (* the failing constraint, for explanation lookups *)
  f_origin : Constr.origin;
  f_goal : Pred.t; (* the unprovable obligation, under the final solution *)
  f_cex : (string * Solver.cex_value) list;
      (* falsifying values, when available *)
}

type stats = {
  mutable iterations : int; (* worklist pops *)
  mutable implication_checks : int;
  mutable initial_candidates : int;
  mutable alpha_collapsed : int;
      (* instances collapsed by orientation-level dedup at instantiation *)
}

type part_info = {
  pt_id : int;
  pt_kvars : int; (* κs owned *)
  pt_subs : int; (* constraints solved *)
  pt_time : float; (* wall-clock seconds *)
}

type result = {
  solution : Constr.solution;
  failures : failure list; (* in original-constraint order *)
  solver_stats : stats;
  parts : part_info list; (* by unit id *)
  unit_hits : int; (* units served from the partition cache *)
  unit_misses : int; (* units solved live under a partition cache *)
}

(* -- Initialization ---------------------------------------------------------- *)

(** Candidate assignment: per κ, the qualifier instances, each carrying
    the names of the patterns that produced it. *)
type candidates = (Pred.t * SSet.t) list KMap.t

(** Initial assignment: qualifier instances per κ, intersected over all of
    the κ's well-formedness environments.  Each instance carries the names
    of the qualifier patterns that produced it; the solve drops them, and
    the dead-qualifier lint instantiates again to read them. *)
let init_assignment ?(consts = []) ?collapsed (quals : Qualifier.t list)
    (wfs : Constr.wf list) : candidates =
  List.fold_left
    (fun acc (wf : Constr.wf) ->
      let scope = Constr.scope_of_env wf.Constr.wf_env in
      let insts =
        List.map
          (fun (p, names) -> (p, SSet.of_list names))
          (Qualifier.instances_tagged ~consts ?collapsed quals
             ~vv_sort:wf.Constr.wf_sort ~scope)
      in
      match KMap.find_opt wf.Constr.wf_kvar acc with
      | None -> KMap.add wf.Constr.wf_kvar insts acc
      | Some prev ->
          let inter =
            List.filter_map
              (fun (p, names) ->
                match List.find_opt (fun (q, _) -> Pred.equal p q) insts with
                | Some (_, names') -> Some (p, SSet.union names names')
                | None -> None)
              prev
          in
          KMap.add wf.Constr.wf_kvar inter acc)
    KMap.empty wfs

(* -- Dependency index ----------------------------------------------------------- *)

(* The κs a constraint reads/writes live in {!Constr} ([Constr.reads],
   [Constr.writes]), shared with the partition planner. *)
let reads = Constr.reads
let writes = Constr.writes

(* -- Checking --------------------------------------------------------------------- *)

let vv_value (sort : Sort.t) : Pred.value =
  match sort with
  | Sort.Bool -> Pred.Pr (Pred.bvar Ident.vv)
  | s -> Pred.Tm (Term.var Ident.vv s)

(** A constraint's antecedent as compiled slots: the environment's
    binding facts, which relevance pruning may drop, and the lhs preds
    then the guards, which the solver keeps verbatim (so contradictory
    path conditions are never pruned away). *)
type antecedent = {
  hyp_slots : Constr.slot list; (* environment facts; prunable *)
  kept_slots : Constr.slot list; (* lhs preds @ guards; unpruned *)
}

let compile_antecedent ?inst (c : Constr.sub) : antecedent =
  {
    hyp_slots = List.map snd (Constr.compile_env ?inst c.Constr.sub_env);
    kept_slots =
      Constr.compile_refinement ?inst (vv_value c.Constr.vv_sort) c.Constr.lhs
      @ List.map (fun g -> Constr.Sstatic g) (Constr.guards c.Constr.sub_env);
  }

(** Expand environment slots under the current solution: the
    hypotheses, [tt] dropped as {!Constr.embed_env} drops it, each with
    the κ it came from ([None] for static facts). *)
let expand_hyps lookup (slots : Constr.slot list) :
    (Pred.t * Rtype.kvar option) list =
  List.filter (fun (p, _) -> not (Pred.is_true p)) (Constr.expand lookup slots)

let expand_antecedent lookup (a : antecedent) : Pred.t list * Pred.t list =
  ( List.map fst (expand_hyps lookup a.hyp_slots),
    List.map fst (Constr.expand lookup a.kept_slots) )

let hypotheses lookup (c : Constr.sub) : Pred.t list * Pred.t list =
  expand_antecedent lookup (compile_antecedent c)

(* -- Counterexample evaluation -------------------------------------------------- *)

(* A strict evaluator over a solver counterexample, for model-based
   elimination in the weakening loop.  Values come from the raw model
   of an [Invalid] answer, keyed by original entity labels (its display
   model strips alpha-renaming suffixes, so distinct solver variables
   can collide on one label there).  Labels
   that do collide with conflicting values are poisoned, and any
   sub-term without a grounded model value raises [Unvalued] — unlike
   {!Pred.eval}, this evaluator never guesses, so a [false] verdict is
   a genuine semantic refutation under the model. *)

exception Unvalued

type model_table = (string, Solver.cex_value option) Hashtbl.t

let model_table (cex : (string * Solver.cex_value) list) : model_table =
  let h : model_table = Hashtbl.create 16 in
  List.iter
    (fun (l, v) ->
      match Hashtbl.find_opt h l with
      | None -> Hashtbl.replace h l (Some v)
      | Some (Some v') when v' = v -> ()
      | Some _ -> Hashtbl.replace h l None)
    cex;
  h

let model_value (m : model_table) (label : string) : Solver.cex_value =
  match Hashtbl.find_opt m label with
  | Some (Some v) -> v
  | _ -> raise Unvalued

let rec eval_term (m : model_table) (t : Term.t) : int =
  match Term.view t with
  | Term.Int n -> n
  | Term.Var (x, _) -> (
      (* Variable entities are labelled by their raw identifier (the
         pretty-printer's [VV -> v] and ['%'] rewrites do not apply). *)
      match model_value m (Ident.to_string x) with
      | Solver.Vint n -> n
      | Solver.Vbool _ -> raise Unvalued)
  | Term.App _ -> (
      (* Application entities are labelled by their rendering. *)
      match model_value m (Term.to_string t) with
      | Solver.Vint n -> n
      | Solver.Vbool _ -> raise Unvalued)
  | Term.Neg a -> -eval_term m a
  | Term.Add (a, b) -> eval_term m a + eval_term m b
  | Term.Sub (a, b) -> eval_term m a - eval_term m b
  | Term.Mul (a, b) -> eval_term m a * eval_term m b

let eval_brel (r : Pred.brel) (a : int) (b : int) : bool =
  match r with
  | Pred.Eq -> a = b
  | Pred.Ne -> a <> b
  | Pred.Lt -> a < b
  | Pred.Le -> a <= b
  | Pred.Gt -> a > b
  | Pred.Ge -> a >= b

let rec eval_pred (m : model_table) (p : Pred.t) : bool =
  match Pred.view p with
  | Pred.True -> true
  | Pred.False -> false
  | Pred.Atom (a, r, b) -> eval_brel r (eval_term m a) (eval_term m b)
  | Pred.Bvar x -> (
      match model_value m (Ident.to_string x) with
      | Solver.Vbool b -> b
      | Solver.Vint _ -> raise Unvalued)
  | Pred.Not p -> not (eval_pred m p)
  | Pred.And ps -> List.for_all (eval_pred m) ps
  | Pred.Or ps -> List.exists (eval_pred m) ps
  | Pred.Imp (a, b) -> (not (eval_pred m a)) || eval_pred m b
  | Pred.Iff (a, b) -> eval_pred m a = eval_pred m b

(* A conjunct's verdict under a pooled model ([Fails]: false or
   [Unvalued]), memoized per writer visit. *)
type verdict = Unevaluated | Holds | Fails

(* -- Model-based elimination ------------------------------------------------- *)

(* Model-based elimination state: a pool of models harvested from
   failing checks, plus a per-constraint two-armed bandit choosing
   between the two ways of deciding a writer visit.  A visit with [n]
   pending instances can be decided conjunction-first (one query; on
   [Invalid], fall through to per-goal checks) or per-goal only.  A
   [Valid] conjunction confirms all [n] instances for one query — but
   because the negated goal is a disjunction the unit-propagation fast
   path cannot touch, it pays for propositional model search over the
   whole environment, which on arithmetic-heavy programs dwarfs [n]
   fast-path per-goal checks; elsewhere (shallow environments, cheap
   theory calls) one conjunction beats [n] queries' worth of per-query
   overhead.  Neither arm wins globally, so each constraint tracks an
   EMA of {e work per instance} under each arm and plays the cheaper
   one.  Work is metered in
   {!Solver.work_total} units (theory calls + LIA nodes), which the
   solver replays on cache hits — so the decisions, and with them the
   solver query counts, are deterministic and independent of machine
   load and cache temperature.

   One state serves every unit of a run: constraint ids are unique
   within a run, and a model harvested in one unit refutes instances of
   later units as soundly as its own, because a kill only ever rests on
   a model satisfying the killed instance's own prepared query. *)
type visit_arms = {
  mutable av_conj : float; (* EMA: work per instance, conjunction-first *)
  mutable av_indiv : float; (* EMA: work per instance, per-goal only *)
      (* negative: the arm has not been sampled by this constraint yet *)
}

type elim = {
  pool : model_table list ref;
  mutable harvests : int; (* models harvested so far *)
  arms : (int, visit_arms) Hashtbl.t; (* constraint id -> bandit state *)
  (* Global prior: running mean work/instance of each arm across every
     constraint, consulted where a constraint has no sample of its own.
     Environment character (deep vs shallow, arithmetic-heavy vs not) is
     largely a property of the program, so a sibling's experience is a
     far better first guess than a forced sample of an arm the whole
     workload has already shown to be expensive. *)
  mutable g_conj : float;
  mutable g_conj_n : int;
  mutable g_indiv : float;
  mutable g_indiv_n : int;
}

let fresh_elim () : elim =
  {
    pool = ref [];
    harvests = 0;
    arms = Hashtbl.create 64;
    g_conj = 0.0;
    g_conj_n = 0;
    g_indiv = 0.0;
    g_indiv_n = 0;
  }

(* -- Weakening --------------------------------------------------------------- *)

(** Per-constraint compiled state.  [checks] maps an instance's interned
    tag to its last validation's dependency record: the κ/version pairs
    the verdict could depend on — the κs of hypotheses retained by
    relevance pruning, plus every lhs κ (lhs preds are exempt from
    pruning, so the query always contains them) — and the interned tags
    of those retained hypotheses.  The tags give a second, finer skip:
    hypotheses only ever shrink, so if every retained hypothesis is still
    present (and the lhs κs are unchanged), the pruned query is
    byte-identical to the one that validated, whatever else changed. *)
type compiled = {
  ante : antecedent; (* memoized instantiation *)
  lhs_ks : ISet.t;
  checks : (int, (int * int) list * ISet.t) Hashtbl.t;
}

let compile_sub (c : Constr.sub) : compiled =
  {
    ante = compile_antecedent ~inst:Constr.memoized_inst c;
    lhs_ks = ISet.of_list (List.map fst c.Constr.lhs.Rtype.kvars);
    checks = Hashtbl.create 16;
  }

(* The state one writer visit reads and updates: the unit's assignment,
   compiled constraints and κ versions, and the run's counters and
   elimination state. *)
type shared = {
  stats : stats;
  assignment : Constr.solution ref;
  lookup : Rtype.kvar -> Pred.t list;
  push_dependents : Rtype.kvar -> unit;
  compiled : (int, compiled) Hashtbl.t; (* constraint id -> compiled state *)
  version : (int, int) Hashtbl.t; (* κ -> times it weakened *)
  elim : elim;
      (* model-based elimination: a pending instance whose prepared
         query evaluates to [true] under a pooled model is semantically
         satisfiable — the instance dies with no solver contact at
         all. *)
}

let weaken (sh : shared) (c : Constr.sub) (k : Rtype.kvar)
    (theta : Pred.subst) : unit =
  let ver k =
    match Hashtbl.find_opt sh.version k with Some v -> v | None -> 0
  in
  let current =
    match KMap.find_opt k !(sh.assignment) with Some ps -> ps | None -> []
  in
  if current <> [] then begin
    let comp =
      match Hashtbl.find_opt sh.compiled c.Constr.sub_id with
      | Some comp -> comp
      | None ->
          let comp = compile_sub c in
          Hashtbl.add sh.compiled c.Constr.sub_id comp;
          comp
    in
    let goal_of q = Pred.subst theta q in
    let up_to_date q =
      match Hashtbl.find_opt comp.checks (Pred.tag q) with
      | None -> false
      | Some (deps, _) -> List.for_all (fun (k', v) -> ver k' = v) deps
    in
    let stale = List.filter (fun inst -> not (up_to_date inst)) current in
    if stale <> [] then begin
      let items = expand_hyps sh.lookup comp.ante.hyp_slots in
      let hyps = List.map fst items in
      let origins = Array.of_list (List.map snd items) in
      let kept = List.map fst (Constr.expand sh.lookup comp.ante.kept_slots) in
      (* Interned tags of the current hypotheses, and every κ each tag is
         instantiated from (hash-consing can make two sites produce the
         same predicate, in which case it survives until both drop it).
         Built lazily: the tables only serve the tag-identity skip below,
         which can't fire on a first visit (no records exist yet). *)
      let hyp_arr = Array.of_list hyps in
      let tag_tables =
        lazy
          (let hyp_tags = ref ISet.empty in
           let tag_origins : (int, ISet.t) Hashtbl.t = Hashtbl.create 64 in
           Array.iteri
             (fun i h ->
               let t = Pred.tag h in
               hyp_tags := ISet.add t !hyp_tags;
               match origins.(i) with
               | None -> ()
               | Some k' ->
                   let prev =
                     match Hashtbl.find_opt tag_origins t with
                     | Some s -> s
                     | None -> ISet.empty
                   in
                   Hashtbl.replace tag_origins t (ISet.add k' prev))
             hyp_arr;
           (!hyp_tags, tag_origins))
      in
      (* Dependency record of a verdict: κs of pruned-in hypotheses plus
         lhs κs (unpruned), stamped with their current versions, and the
         tags of the pruned-in hypotheses. *)
      let deps_of idx =
        let tags, ks =
          List.fold_left
            (fun (tags, ks) i ->
              match origins.(i) with
              | Some k' ->
                  (ISet.add (Pred.tag hyp_arr.(i)) tags, ISet.add k' ks)
              | None -> (tags, ks))
            (ISet.empty, comp.lhs_ks) idx
        in
        (List.map (fun k' -> (k', ver k')) (ISet.elements ks), tags)
      in
      let record q deps = Hashtbl.replace comp.checks (Pred.tag q) deps in
      (* Second-chance skip: hypotheses only ever shrink, so if every
         pruned-in hypothesis of an instance's last validating query is
         still present — and the lhs κs (whose preds are exempt from
         pruning) are unchanged — then relevance pruning reproduces that
         query byte-for-byte and the instance is still Valid.  Costs a
         tag-set check; no solver interaction at all. *)
      let still_identical q =
        match Hashtbl.find_opt comp.checks (Pred.tag q) with
        | None -> false
        | Some (deps, tags) ->
            List.for_all
              (fun (k', v) -> (not (ISet.mem k' comp.lhs_ks)) || ver k' = v)
              deps
            && ISet.subset tags (fst (Lazy.force tag_tables))
      in
      let revalidate q tags =
        (* Re-stamp with current versions; origins are recomputed because
           a surviving predicate may now be owed to different κs. *)
        let tag_origins = snd (Lazy.force tag_tables) in
        let ks =
          ISet.fold
            (fun t acc ->
              match Hashtbl.find_opt tag_origins t with
              | Some s -> ISet.union s acc
              | None -> acc)
            tags comp.lhs_ks
        in
        let deps = List.map (fun k' -> (k', ver k')) (ISet.elements ks) in
        Hashtbl.replace comp.checks (Pred.tag q) (deps, tags)
      in
      let pending =
        List.filter
          (fun q ->
            match Hashtbl.find_opt comp.checks (Pred.tag q) with
            | Some (_, tags) when still_identical q ->
                revalidate q tags;
                false
            | _ -> true)
          stale
      in
      (* Fast path: one query for the conjunction of the still-undecided
         goals.  Its pruning seed covers every individual goal, so its
         retained-κ set is a (conservative) superset of each instance's
         own. *)
      let retained =
        if pending = [] then current
        else begin
          (* One relevance index serves every query of the visit. *)
          let relevance = Solver.index ~kept hyps in
          let valid = ref ISet.empty in
          let confirm_all insts idx =
            let deps = deps_of idx in
            List.iter
              (fun q ->
                record q deps;
                valid := ISet.add (Pred.tag q) !valid)
              insts
          in
          (* With a counterexample pool, a failing check is not a dead
             end.  A pending instance dies for free when a pooled model
             makes its {e prepared} per-goal query ([¬goal] plus its own
             relevance-pruned hypotheses) evaluate to [true]: that is a
             semantic satisfiability certificate for exactly the query
             the solver would have SAT-checked.  Each failing check
             contributes its fresh model to the pool, so one paid query
             buries every pool-refutable goal of this — and every later
             — writer visit.

             The query is the conjunction of [¬goal], the kept facts
             and the relevant hypotheses, and a conjunction evaluates
             to [true] exactly when each conjunct does (flattening,
             dedup and collapse to [ff]/[tt] preserve that; an
             [Unvalued] conjunct is not [true]).  So a kill is decided
             from per-conjunct verdicts, memoized for the visit, and the
             query is built only for the instances the solver decides. *)
          let elim = sh.elim in
          let facts : (int, Pred.t * Pred.t * int list) Hashtbl.t =
            Hashtbl.create 16
          in
          (* An instance's goal, its negation and its relevant
             hypotheses. *)
          let facts_of q =
            match Hashtbl.find_opt facts (Pred.tag q) with
            | Some f -> f
            | None ->
                let goal = goal_of q in
                let f =
                  (goal, Pred.not_ goal, Solver.relevant relevance goal)
                in
                Hashtbl.add facts (Pred.tag q) f;
                f
          in
          let prep_of inst =
            let goal, _, _ = facts_of inst in
            Solver.prepare relevance goal
          in
          let holds m p =
            match eval_pred m p with b -> b | exception Unvalued -> false
          in
          (* Per pooled model, by physical identity: a lazily filled
             verdict per hypothesis and one for all the kept facts. *)
          let verdicts : (model_table * (verdict array * bool Lazy.t)) list ref
              =
            ref []
          in
          let verdicts_of m =
            match List.assq_opt m !verdicts with
            | Some v -> v
            | None ->
                let v =
                  ( Array.make (Array.length hyp_arr) Unevaluated,
                    lazy (List.for_all (holds m) kept) )
                in
                verdicts := (m, v) :: !verdicts;
                v
          in
          let hyp_holds m hv i =
            match hv.(i) with
            | Holds -> true
            | Fails -> false
            | Unevaluated ->
                let b = holds m hyp_arr.(i) in
                hv.(i) <- (if b then Holds else Fails);
                b
          in
          let killed_by m inst =
            let _, not_goal, rel = facts_of inst in
            holds m not_goal
            &&
            let hv, kept_hold = verdicts_of m in
            Lazy.force kept_hold && List.for_all (hyp_holds m hv) rel
          in
          (* Full pool scan, with move-to-front on a kill: a model that
             refutes one instance tends to refute its siblings too, so
             successful killers drift to the head of the scan order. *)
          let pool_kills inst =
            let rec go seen = function
              | [] -> false
              | m :: rest ->
                  if killed_by m inst then begin
                    (if seen <> [] then
                       elim.pool := m :: List.rev_append seen rest);
                    true
                  end
                  else go (m :: seen) rest
            in
            go [] !(elim.pool)
          in
          let pool_filter insts =
            List.filter (fun inst -> not (pool_kills inst)) insts
          in
          let harvest_model (cex : Solver.cex) =
            match cex.Solver.raw with
            | [] -> ()
            | raw ->
                elim.pool := model_table raw :: Listx.take 7 !(elim.pool);
                elim.harvests <- elim.harvests + 1
          in
          (* Decide each instance on its own prepared query — built
             once, probed against the cache, SAT-checked only on a
             miss.  A pool-refuted instance costs nothing; a freshly
             failing one contributes its model, so deaths cascade
             within — and across — writer visits.  Every caller has
             just pool-filtered [insts], so only models harvested
             {e since entry} need scanning. *)
          let individually insts =
            let entry = elim.harvests in
            List.iter
              (fun q ->
                let fresh = Listx.take (elim.harvests - entry) !(elim.pool) in
                if not (List.exists (fun m -> killed_by m q) fresh) then begin
                  sh.stats.implication_checks <-
                    sh.stats.implication_checks + 1;
                  let prep = prep_of q in
                  match Solver.check_query prep with
                  | Solver.Valid ->
                      record q (deps_of prep.Solver.pruned_idx);
                      valid := ISet.add (Pred.tag q) !valid
                  | Solver.Invalid cex -> harvest_model cex
                  | Solver.Unknown -> ()
                end)
              insts
          in
          let conjoined insts =
            sh.stats.implication_checks <- sh.stats.implication_checks + 1;
            let prep =
              Solver.prepare relevance (Pred.conj (List.map goal_of insts))
            in
            match Solver.check_query prep with
            | Solver.Valid -> confirm_all insts prep.Solver.pruned_idx
            | Solver.Invalid cex -> (
                match insts with
                | [ _ ] -> () (* sole culprit: refuted, not retained *)
                | _ ->
                    (* Someone in the group failed.  Pay at most one
                       conjunction per visit: seed the pool with its
                       model and fall through to individual
                       decisions. *)
                    harvest_model cex;
                    individually (pool_filter insts))
            | Solver.Unknown -> individually insts (* no model to harvest *)
          in
          (* Per-instance work of a visit body, in deterministic solver
             units.  Each issued query also pays a fixed cost the work
             counter cannot see — prepare's relevance scan, query
             construction, interning — all roughly linear in the
             environment, so it is priced at one hypothesis-count per
             query. *)
          let visit_work n f =
            let q0 = Solver.stats.Solver.queries in
            let w0 = !Solver.work_total in
            f ();
            (float_of_int (!Solver.work_total - w0)
            +. float_of_int
                 (((List.length hyps / 4) + 4)
                 * (Solver.stats.Solver.queries - q0)))
            /. float_of_int n
          in
          let rounds insts =
            match pool_filter insts with
            | [] -> ()
            | insts ->
                let st =
                  match Hashtbl.find_opt elim.arms c.Constr.sub_id with
                  | Some st -> st
                  | None ->
                      let st = { av_conj = -1.0; av_indiv = -1.0 } in
                      Hashtbl.add elim.arms c.Constr.sub_id st;
                      st
                in
                (* Estimate each arm from this constraint's own samples,
                   falling back to the global prior; play the cheaper
                   arm, sampling any arm the whole run has never
                   tried. *)
                let est own sum cnt =
                  if own >= 0.0 then own
                  else if cnt > 0 then sum /. float_of_int cnt
                  else -1.0
                in
                let ec = est st.av_conj elim.g_conj elim.g_conj_n in
                let ei = est st.av_indiv elim.g_indiv elim.g_indiv_n in
                let use_conj =
                  if ec < 0.0 then true else if ei < 0.0 then false else ec < ei
                in
                let per =
                  visit_work (List.length insts) (fun () ->
                      if use_conj then conjoined insts else individually insts)
                in
                let ema old = if old < 0.0 then per else (old +. per) /. 2.0 in
                if use_conj then begin
                  st.av_conj <- ema st.av_conj;
                  elim.g_conj <- elim.g_conj +. per;
                  elim.g_conj_n <- elim.g_conj_n + 1
                end
                else begin
                  st.av_indiv <- ema st.av_indiv;
                  elim.g_indiv <- elim.g_indiv +. per;
                  elim.g_indiv_n <- elim.g_indiv_n + 1
                end
          in
          rounds pending;
          if List.for_all (fun q -> ISet.mem (Pred.tag q) !valid) pending then
            current
          else
            List.filter
              (fun q -> ISet.mem (Pred.tag q) !valid || up_to_date q)
              current
        end
      in
      if List.length retained <> List.length current then begin
        sh.assignment := KMap.add k retained !(sh.assignment);
        Hashtbl.replace sh.version k (ver k + 1);
        sh.push_dependents k
      end
    end
  end

(* -- Worklist ------------------------------------------------------------------------- *)

let run_worklist ~elim (subs : Constr.sub list) (stats : stats)
    (assignment : Constr.solution ref) ~(lookup : Rtype.kvar -> Pred.t list) :
    unit =
  (* Dependency index: κ -> constraints that must be re-checked when the
     assignment of κ weakens. *)
  let depends : Constr.sub list IMap.t =
    List.fold_left
      (fun acc c ->
        if writes c = None then acc
        else
          List.fold_left
            (fun acc k ->
              IMap.update k
                (function None -> Some [ c ] | Some cs -> Some (c :: cs))
                acc)
            acc (reads c))
      IMap.empty subs
  in
  (* Worklist of κ-rhs constraints, deduplicated by id. *)
  let queue = Queue.create () in
  let queued = ref ISet.empty in
  let push c =
    if not (ISet.mem c.Constr.sub_id !queued) then begin
      queued := ISet.add c.Constr.sub_id !queued;
      Queue.add c queue
    end
  in
  let push_dependents k =
    match IMap.find_opt k depends with
    | Some cs -> List.iter push cs
    | None -> ()
  in
  let shared =
    {
      stats;
      assignment;
      lookup;
      push_dependents;
      compiled = Hashtbl.create 64;
      version = Hashtbl.create 64;
      elim;
    }
  in
  List.iter (fun c -> if writes c <> None then push c) subs;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    queued := ISet.remove c.Constr.sub_id !queued;
    stats.iterations <- stats.iterations + 1;
    match c.Constr.rhs with
    | Constr.Rconc _ -> ()
    | Constr.Rkvar (k, theta) -> weaken shared c k theta
  done

(* -- Solving one unit --------------------------------------------------------------- *)

(** Result of solving one unit: the final assignment of its κs and its
    concrete-check failures in constraint order. *)
type partial = { pr_solution : Constr.solution; pr_failures : failure list }

(* Versions the marshalled [partial] layout for the persistent
   partition cache.  The executable-stamp check already rejects entries
   across rebuilds; this tag additionally keys the {e meaning} of the
   payload, so a semantic change (what a partial promises, not just its
   shape) can invalidate old entries explicitly. *)
let partial_version = "fixpoint-partial/v6"

let fresh_stats () =
  {
    iterations = 0;
    implication_checks = 0;
    initial_candidates = 0;
    alpha_collapsed = 0;
  }

(* Solve one unit to fixpoint and check its concrete obligations,
   counting into [stats].  [init] is the initial (strongest) assignment
   of the unit's own κs; [base] holds the final solutions of every
   upstream κ the unit's constraints read.  [elim] is the run's
   model-based elimination state, shared with every other unit of the
   run.  All other engine state is local to this call. *)
let run_unit ~elim ~(stats : stats) ~(base : Constr.solution)
    ~(init : Constr.solution) (subs : Constr.sub list) : partial =
  stats.initial_candidates <-
    KMap.fold (fun _ ps n -> n + List.length ps) init stats.initial_candidates;
  let assignment = ref init in
  (* Owned κs resolve through the unit's own (mutable) assignment;
     anything else is an upstream κ, final for the lifetime of this
     unit, resolved through the read-only [base]. *)
  let lookup k =
    match KMap.find_opt k !assignment with
    | Some ps -> ps
    | None -> Constr.sol_find base k
  in
  run_worklist ~elim subs stats assignment ~lookup;
  (* Final pass: concrete obligations, in original constraint order. *)
  let failures =
    List.filter_map
      (fun c ->
        match c.Constr.rhs with
        | Constr.Rkvar _ -> None
        | Constr.Rconc goal ->
            if Pred.equal goal Pred.tt then None
            else begin
              stats.implication_checks <- stats.implication_checks + 1;
              let hyps, kept = hypotheses lookup c in
              let fail f_cex =
                Some
                  {
                    f_sub_id = c.Constr.sub_id;
                    f_origin = c.Constr.origin;
                    f_goal = goal;
                    f_cex;
                  }
              in
              match Solver.check_valid ~kept hyps goal with
              | Solver.Valid -> None
              | Solver.Invalid cex -> fail cex.Solver.display
              | Solver.Unknown -> fail []
            end)
      subs
  in
  { pr_solution = !assignment; pr_failures = failures }

(* -- Solving a plan ----------------------------------------------------------------- *)

(* Re-intern a partial read back from the partition cache: every
   predicate in it is physically foreign after unmarshalling and must be
   mapped to this process's canonical nodes before it can meet native
   predicates (see {!Pred.rehasher}). *)
let rehash_partial (p : partial) : partial =
  let go = Pred.rehasher () in
  {
    pr_solution = KMap.map (List.map go) p.pr_solution;
    pr_failures =
      List.map (fun f -> { f with f_goal = go f.f_goal }) p.pr_failures;
  }

let solve ?(reuse : (string -> partial option) option)
    ?(persist : (string -> partial -> unit) option)
    ~(quals : Qualifier.t list) ~(consts : int list) (wfs : Constr.wf list)
    (subs : Constr.sub list) (plan : Constr.plan) : result =
  let parts = plan.Constr.parts in
  let unit_wfs = Constr.unit_wfs wfs in
  let elim = fresh_elim () in
  let stats = fresh_stats () in
  let collapsed = ref 0 in
  let solution = ref KMap.empty in
  let failures = ref [] in
  let infos = ref [] in
  let caching = reuse <> None || persist <> None in
  let hits = ref 0 and misses = ref 0 in
  (* The digests a key is made of, taken only when caching: one of the
     run's qualifier patterns and mined constants (every unit's initial
     instances are a function of them and of its wf constraints), and
     one of each folded unit's final solution. *)
  let quals_digest =
    if caching then
      Digest.to_hex
        (Digest.string
           (Fmt.str "%a|%s"
              Fmt.(list ~sep:(any " ;; ") Qualifier.pp)
              quals
              (String.concat "," (List.map string_of_int consts))))
    else ""
  in
  let sol_digest = Array.make (Array.length parts) "" in
  let solution_digest (p : Constr.partition) =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map
               (fun k ->
                 Fmt.str "k%d=[%a];" k
                   Fmt.(list ~sep:(any " && ") Pred.pp)
                   (Constr.sol_find !solution k))
               p.Constr.part_kvars)))
  in
  (* Content key of unit [p]; valid once [p]'s dependencies are folded
     in. *)
  let key_of (p : Constr.partition) own_wfs =
    Digest.to_hex
      (Digest.string
         (String.concat "\x01"
            (Constr.unit_signature own_wfs p
            :: quals_digest
            :: List.map (fun d -> sol_digest.(d)) p.Constr.part_deps)))
  in
  Array.iteri
    (fun u (p : Constr.partition) ->
      let t0 = Unix.gettimeofday () in
      let own_wfs = unit_wfs p in
      let key = if caching then Some (key_of p own_wfs) else None in
      let cached =
        match (reuse, key) with Some f, Some k -> f k | _ -> None
      in
      let partial =
        match cached with
        | Some partial ->
            incr hits;
            rehash_partial partial
        | None ->
            (* Qualifiers are instantiated for the units solved, and
               only at their own κs; the solve drops the pattern
               names. *)
            let init =
              KMap.map (List.map fst)
                (init_assignment ~consts ~collapsed quals own_wfs)
            in
            let partial =
              run_unit ~elim ~stats ~base:!solution ~init p.Constr.part_subs
            in
            if caching then incr misses;
            (match (persist, key) with
            | Some f, Some k -> f k partial
            | _ -> ());
            partial
      in
      solution := KMap.fold KMap.add partial.pr_solution !solution;
      if caching then sol_digest.(u) <- solution_digest p;
      failures := List.rev_append partial.pr_failures !failures;
      infos :=
        {
          pt_id = u;
          pt_kvars = List.length p.Constr.part_kvars;
          pt_subs = List.length p.Constr.part_subs;
          pt_time = Unix.gettimeofday () -. t0;
        }
        :: !infos)
    parts;
  stats.alpha_collapsed <- !collapsed;
  (* Failures in original-constraint order. *)
  let rank = Hashtbl.create (List.length subs) in
  List.iteri (fun i (c : Constr.sub) -> Hashtbl.add rank c.Constr.sub_id i) subs;
  let failures =
    List.sort
      (fun a b ->
        compare (Hashtbl.find rank a.f_sub_id) (Hashtbl.find rank b.f_sub_id))
      !failures
  in
  {
    solution = !solution;
    failures;
    solver_stats = stats;
    parts = List.rev !infos;
    unit_hits = !hits;
    unit_misses = !misses;
  }

(* -- Applying solutions ----------------------------------------------------------------- *)

(** Replace every κ in [t] by (the conjunction of) its solution. *)
let rec apply_solution (sol : Pred.t list KMap.t) (t : Rtype.t) : Rtype.t =
  let refinement (r : Rtype.refinement) : Rtype.refinement =
    let solved =
      List.concat_map
        (fun (k, theta) ->
          let ps = match KMap.find_opt k sol with Some ps -> ps | None -> [] in
          List.map (Pred.subst theta) ps)
        r.Rtype.kvars
    in
    Rtype.known (Pred.conj (r.Rtype.preds :: solved))
  in
  match t with
  | Rtype.Base (b, r) -> Rtype.Base (b, refinement r)
  | Rtype.Fun (x, t1, t2) ->
      Rtype.Fun (x, apply_solution sol t1, apply_solution sol t2)
  | Rtype.Tuple ts -> Rtype.Tuple (List.map (apply_solution sol) ts)
  | Rtype.List (t, r) -> Rtype.List (apply_solution sol t, refinement r)
  | Rtype.Array (t, r) -> Rtype.Array (apply_solution sol t, refinement r)
  | Rtype.Data (d, r) -> Rtype.Data (d, refinement r)
  | Rtype.Tyvar (k, r) -> Rtype.Tyvar (k, refinement r)
