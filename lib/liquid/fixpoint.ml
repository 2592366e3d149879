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

    Two engines implement the weakening loop:

    - the {e naive} engine re-embeds every constraint's environment on
      each worklist pop and re-checks every candidate instance (kept
      because [Pipeline.options.incremental] selects it; the reference
      the tests hold the incremental engine to is the pool-free
      {!solve_unit});
    - the {e incremental} engine (default) compiles each constraint's
      antecedent once into static facts plus per-κ instantiation sites
      ({!compile_antecedent}), and records, per (constraint, instance),
      which κs the validating query's retained hypotheses came from.  On
      requeue, an instance is re-checked only if some κ it depends on has
      weakened since its last validation.  This skip is {e exact}, not
      just sound: relevance pruning is monotone, so weakening a κ outside
      the recorded dependency set leaves the instance's pruned query —
      and hence its verdict — byte-identical.  A second, finer skip on
      the interned tags of the retained hypotheses catches instances
      whose pruned query survives even though a dependency κ changed.
      Both engines compute the same solution, in the same candidate
      order.

    The incremental engine also runs {e model-based elimination}: a
    pool of counterexample models harvested from failing checks kills
    any pending instance whose prepared query a pooled model satisfies,
    with no solver contact, and a per-constraint bandit picks how each
    writer visit is decided.  Both live in an {!elim} value that the
    caller threads through every unit of a run; without one, a unit is
    solved pool-free, the reference the tests hold the engine to.

    The engine itself is organized around {e solve units}
    ({!Constr.partition}): the worklist, assignment fragment, compiled
    constraints, κ versions and counters live in a per-unit record
    created by {!solve_unit}, never in module globals.  {!solve} runs
    the whole system as a single unit; {!Liquid_engine.Psolve} runs one
    unit per κ-SCC in topological order, merging the resulting
    {!partial}s with the pure helpers below. *)

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

type result = {
  solution : Pred.t list KMap.t;
  failures : failure list;
  solver_stats : stats;
  dead_quals : string list;
      (* qualifier patterns with at least one initial instance, none of
         which survived weakening in any κ *)
}

(* -- Initialization ---------------------------------------------------------- *)

(** Initial assignment: qualifier instances per κ, intersected over all of
    the κ's well-formedness environments.  Each instance carries the names
    of the qualifier patterns that produced it, so the solver can report
    patterns whose every instance gets pruned. *)
let init_assignment ?(consts = []) ?collapsed (quals : Qualifier.t list)
    (wfs : Constr.wf list) : (Pred.t * SSet.t) list KMap.t =
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
      @ List.map (fun g -> Constr.Sstatic g) c.Constr.sub_env.Constr.guards;
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

(* -- Worklist ------------------------------------------------------------------------- *)

(* The two engines share initialization, the dependency-directed worklist,
   the final concrete pass, and dead-qualifier reporting; they differ only
   in how a popped κ-rhs constraint is weakened. *)

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

type shared = {
  stats : stats;
  assignment : (Pred.t * SSet.t) list KMap.t ref;
  lookup : Rtype.kvar -> Pred.t list;
  push_dependents : Rtype.kvar -> unit;
  elim : elim option;
      (* model-based elimination; [None] solves pool-free.  A pending
         instance whose prepared query evaluates to [true] under a
         pooled model is semantically satisfiable — the instance dies
         with no solver contact at all. *)
}

let run_worklist ?elim (subs : Constr.sub list)
    (stats : stats) (assignment : (Pred.t * SSet.t) list KMap.t ref)
    ~(base : Constr.solution)
    ~(weaken : shared -> Constr.sub -> Rtype.kvar -> Pred.subst -> unit) :
    unit =
  (* Owned κs resolve through the unit's own (mutable) assignment;
     anything else is an upstream κ, final for the lifetime of this
     unit, resolved through the read-only [base]. *)
  let lookup k =
    match KMap.find_opt k !assignment with
    | Some ps -> List.map fst ps
    | None -> Constr.sol_find base k
  in
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
  let shared = { stats; assignment; lookup; push_dependents; elim } in
  List.iter (fun c -> if writes c <> None then push c) subs;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    queued := ISet.remove c.Constr.sub_id !queued;
    stats.iterations <- stats.iterations + 1;
    match c.Constr.rhs with
    | Constr.Rconc _ -> ()
    | Constr.Rkvar (k, theta) -> weaken shared c k theta
  done

(* -- Naive weakening ------------------------------------------------------------------ *)

let weaken_naive (sh : shared) (c : Constr.sub) (k : Rtype.kvar)
    (theta : Pred.subst) : unit =
  let current =
    match KMap.find_opt k !(sh.assignment) with Some ps -> ps | None -> []
  in
  if current <> [] then begin
    let hyps, kept = hypotheses sh.lookup c in
    let goal_of (q, _) = Pred.subst theta q in
    (* Fast path: if the whole conjunction is implied, keep all. *)
    sh.stats.implication_checks <- sh.stats.implication_checks + 1;
    let all_ok =
      Solver.check_valid ~kept hyps (Pred.conj (List.map goal_of current))
      = Solver.Valid
    in
    let retained =
      if all_ok then current
      else
        List.filter
          (fun inst ->
            sh.stats.implication_checks <- sh.stats.implication_checks + 1;
            Solver.check_valid ~kept hyps (goal_of inst) = Solver.Valid)
          current
    in
    if List.length retained <> List.length current then begin
      sh.assignment := KMap.add k retained !(sh.assignment);
      sh.push_dependents k
    end
  end

(* -- Incremental weakening ------------------------------------------------------------ *)

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

let weaken_incremental (compiled_of : Constr.sub -> compiled)
    (version : (int, int) Hashtbl.t) (sh : shared) (c : Constr.sub)
    (k : Rtype.kvar) (theta : Pred.subst) : unit =
  let ver k = match Hashtbl.find_opt version k with Some v -> v | None -> 0 in
  let current =
    match KMap.find_opt k !(sh.assignment) with Some ps -> ps | None -> []
  in
  if current <> [] then begin
    let comp = compiled_of c in
    let goal_of (q, _) = Pred.subst theta q in
    let up_to_date (q, _) =
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
      let record (q, _) deps = Hashtbl.replace comp.checks (Pred.tag q) deps in
      (* Second-chance skip: hypotheses only ever shrink, so if every
         pruned-in hypothesis of an instance's last validating query is
         still present — and the lhs κs (whose preds are exempt from
         pruning) are unchanged — then relevance pruning reproduces that
         query byte-for-byte and the instance is still Valid.  Costs a
         tag-set check; no solver interaction at all. *)
      let still_identical (q, _) =
        match Hashtbl.find_opt comp.checks (Pred.tag q) with
        | None -> false
        | Some (deps, tags) ->
            List.for_all
              (fun (k', v) -> (not (ISet.mem k' comp.lhs_ks)) || ver k' = v)
              deps
            && ISet.subset tags (fst (Lazy.force tag_tables))
      in
      let revalidate (q, _) tags =
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
          (fun ((q, _) as inst) ->
            match Hashtbl.find_opt comp.checks (Pred.tag q) with
            | Some (_, tags) when still_identical inst ->
                revalidate inst tags;
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
          let valid = ref ISet.empty in
          let confirm_all insts idx =
            let deps = deps_of idx in
            List.iter
              (fun ((q, _) as inst) ->
                record inst deps;
                valid := ISet.add (Pred.tag q) !valid)
              insts
          in
          (* Decide each instance on its own prepared query — built
             once, probed against the cache, SAT-checked only on a
             miss. *)
          let individually insts =
            List.iter
              (fun ((q, _) as inst) ->
                sh.stats.implication_checks <- sh.stats.implication_checks + 1;
                let prep = Solver.prepare ~kept hyps (goal_of inst) in
                if Solver.check_query prep = Solver.Valid then begin
                  record inst (deps_of prep.Solver.pruned_idx);
                  valid := ISet.add (Pred.tag q) !valid
                end)
              insts
          in
          (* With a counterexample pool, a failing check is not a dead
             end.  A pending instance dies for free when a pooled model
             makes its {e prepared} per-goal query ([¬goal] plus its own
             relevance-pruned hypotheses) evaluate to [true]: that is a
             semantic satisfiability certificate for exactly the query
             the pool-free engine would have SAT-checked.  Each failing
             check contributes its fresh model to the pool, so one paid
             query buries every pool-refutable goal of this — and every
             later — writer visit. *)
          let elim = sh.elim in
          let preps : (int, Solver.prepared) Hashtbl.t = Hashtbl.create 16 in
          let prep_of ((q, _) as inst) =
            match Hashtbl.find_opt preps (Pred.tag q) with
            | Some p -> p
            | None ->
                let p = Solver.prepare ~kept hyps (goal_of inst) in
                Hashtbl.add preps (Pred.tag q) p;
                p
          in
          let killed_by _e m inst =
            match eval_pred m (prep_of inst).Solver.query with
            | b -> b
            | exception Unvalued -> false
          in
          (* Full pool scan, with move-to-front on a kill: a model that
             refutes one instance tends to refute its siblings too, so
             successful killers drift to the head of the scan order. *)
          let pool_kills e inst =
            let rec go seen = function
              | [] -> false
              | m :: rest ->
                  if killed_by e m inst then begin
                    (if seen <> [] then
                       e.pool := m :: List.rev_append seen rest);
                    true
                  end
                  else go (m :: seen) rest
            in
            go [] !(e.pool)
          in
          let pool_filter insts =
            match elim with
            | None -> insts
            | Some e -> List.filter (fun inst -> not (pool_kills e inst)) insts
          in
          let harvest_model e (cex : Solver.cex) =
            match cex.Solver.raw with
            | [] -> ()
            | raw ->
                e.pool := model_table raw :: Listx.take 7 !(e.pool);
                e.harvests <- e.harvests + 1
          in
          (* Individual decisions, pool-accelerated: a pool-refuted
             instance costs nothing; a freshly failing one contributes
             its model, so deaths cascade within — and across — writer
             visits.  Every caller has just pool-filtered [insts], so
             only models harvested {e since entry} need scanning.
             Returns the number of instances that failed. *)
          let individually_pooled e insts =
            let entry = e.harvests in
            let deaths = ref 0 in
            List.iter
              (fun ((q, _) as inst) ->
                let fresh = Listx.take (e.harvests - entry) !(e.pool) in
                if List.exists (fun m -> killed_by e m inst) fresh then
                  incr deaths
                else begin
                  sh.stats.implication_checks <-
                    sh.stats.implication_checks + 1;
                  let prep = prep_of inst in
                  match Solver.check_query prep with
                  | Solver.Valid ->
                      record inst (deps_of prep.Solver.pruned_idx);
                      valid := ISet.add (Pred.tag q) !valid
                  | Solver.Invalid cex ->
                      incr deaths;
                      harvest_model e cex
                  | Solver.Unknown -> incr deaths
                end)
              insts;
            !deaths
          in
          let conjoined insts =
            sh.stats.implication_checks <- sh.stats.implication_checks + 1;
            let prep =
              Solver.prepare ~kept hyps (Pred.conj (List.map goal_of insts))
            in
            match (Solver.check_query prep, elim) with
            | Solver.Valid, _ -> confirm_all insts prep.Solver.pruned_idx
            | Solver.Invalid cex, Some e -> (
                match insts with
                | [ _ ] -> () (* sole culprit: refuted, not retained *)
                | _ ->
                    (* Someone in the group failed.  Pay at most one
                       conjunction per visit: seed the pool with its
                       model and fall through to individual
                       decisions. *)
                    harvest_model e cex;
                    ignore (individually_pooled e (pool_filter insts)))
            | _, _ -> individually insts
          in
          (* Per-instance work of a visit body, in deterministic solver
             units.  Each issued query also pays a fixed cost the work
             counter cannot see — prepare's relevance closure, query
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
            | insts -> (
                match elim with
                | None -> conjoined insts
                | Some e ->
                    let st =
                      match Hashtbl.find_opt e.arms c.Constr.sub_id with
                      | Some st -> st
                      | None ->
                          let st = { av_conj = -1.0; av_indiv = -1.0 } in
                          Hashtbl.add e.arms c.Constr.sub_id st;
                          st
                    in
                    (* Estimate each arm from this constraint's own
                       samples, falling back to the global prior; play
                       the cheaper arm, sampling any arm the whole run
                       has never tried. *)
                    let est own sum cnt =
                      if own >= 0.0 then own
                      else if cnt > 0 then sum /. float_of_int cnt
                      else -1.0
                    in
                    let ec = est st.av_conj e.g_conj e.g_conj_n in
                    let ei = est st.av_indiv e.g_indiv e.g_indiv_n in
                    let use_conj =
                      if ec < 0.0 then true
                      else if ei < 0.0 then false
                      else ec < ei
                    in
                    let per =
                      visit_work (List.length insts) (fun () ->
                          if use_conj then conjoined insts
                          else ignore (individually_pooled e insts))
                    in
                    (if use_conj then begin
                       st.av_conj <-
                         (if st.av_conj < 0.0 then per
                          else (st.av_conj +. per) /. 2.0);
                       e.g_conj <- e.g_conj +. per;
                       e.g_conj_n <- e.g_conj_n + 1
                     end
                     else begin
                       st.av_indiv <-
                         (if st.av_indiv < 0.0 then per
                          else (st.av_indiv +. per) /. 2.0);
                       e.g_indiv <- e.g_indiv +. per;
                       e.g_indiv_n <- e.g_indiv_n + 1
                     end))
          in
          rounds pending;
          if
            List.for_all
              (fun (q, _) -> ISet.mem (Pred.tag q) !valid)
              pending
          then current
          else
            List.filter
              (fun ((q, _) as inst) ->
                ISet.mem (Pred.tag q) !valid || up_to_date inst)
              current
        end
      in
      if List.length retained <> List.length current then begin
        sh.assignment := KMap.add k retained !(sh.assignment);
        Hashtbl.replace version k (ver k + 1);
        sh.push_dependents k
      end
    end
  end

(* -- Solving one unit --------------------------------------------------------------- *)

(** Candidate assignment: per κ, the surviving qualifier instances, each
    carrying the names of the patterns that produced it. *)
type candidates = (Pred.t * SSet.t) list KMap.t

(** Global SMT-counter movement during a unit's solve, so a parent
    process can fold a worker's solver activity into its own counters
    (the worker's {!Solver.stats} die with the worker). *)
type smt_delta = {
  d_queries : int;
  d_cache_hits : int;
  d_sat_checks : int;
  d_unknowns : int;
}

(** Result of solving one unit: the final assignment of its κs, its
    concrete-check failures keyed by [sub_id] (for deterministic
    cross-unit ordering), its counters, and its SMT-counter delta. *)
type partial = {
  pr_solution : candidates;
  pr_failures : (int * failure) list;
  pr_stats : stats;
  pr_smt : smt_delta;
}

(* Versions the marshalled [partial] layout for the persistent
   partition cache.  The executable-stamp check already rejects entries
   across rebuilds; this tag additionally keys the {e meaning} of the
   payload, so a semantic change (what a partial promises, not just its
   shape) can invalidate old entries explicitly. *)
let partial_version = "fixpoint-partial/v3"

let fresh_stats () =
  {
    iterations = 0;
    implication_checks = 0;
    initial_candidates = 0;
    alpha_collapsed = 0;
  }

(* Number of instances over all κs of an assignment. *)
let size (a : candidates) : int =
  KMap.fold (fun _ ps n -> n + List.length ps) a 0

(** Solve one unit to fixpoint and check its concrete obligations.
    [init] is the initial (strongest) assignment of the unit's own κs;
    [base] holds the final solutions of every upstream κ the unit's
    constraints read.  [elim] is the run's model-based elimination
    state, shared with every other unit of the run; without it the
    unit is solved pool-free, the reference the tests hold the engine
    to.  All other engine state is local to this call. *)
let solve_unit ?(incremental = true) ?elim ~(base : Constr.solution)
    ~(init : candidates) (subs : Constr.sub list) : partial =
  let stats = fresh_stats () in
  let smt0 =
    ( Solver.stats.Solver.queries,
      Solver.stats.Solver.cache_hits,
      Solver.stats.Solver.sat_checks,
      Solver.stats.Solver.unknowns )
  in
  stats.initial_candidates <- size init;
  let assignment = ref init in
  (if incremental then begin
     let table : (int, compiled) Hashtbl.t = Hashtbl.create 64 in
     let compiled_of c =
       match Hashtbl.find_opt table c.Constr.sub_id with
       | Some comp -> comp
       | None ->
           let comp = compile_sub c in
           Hashtbl.add table c.Constr.sub_id comp;
           comp
     in
     let version : (int, int) Hashtbl.t = Hashtbl.create 64 in
     run_worklist ?elim subs stats assignment ~base
       ~weaken:(weaken_incremental compiled_of version)
   end
   else run_worklist subs stats assignment ~base ~weaken:weaken_naive);
  let lookup k =
    match KMap.find_opt k !assignment with
    | Some ps -> List.map fst ps
    | None -> Constr.sol_find base k
  in
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
                  ( c.Constr.sub_id,
                    {
                      f_sub_id = c.Constr.sub_id;
                      f_origin = c.Constr.origin;
                      f_goal = goal;
                      f_cex;
                    } )
              in
              match Solver.check_valid ~kept hyps goal with
              | Solver.Valid -> None
              | Solver.Invalid cex -> fail cex.Solver.display
              | Solver.Unknown -> fail []
            end)
      subs
  in
  let q0, h0, s0, u0 = smt0 in
  {
    pr_solution = !assignment;
    pr_failures = failures;
    pr_stats = stats;
    pr_smt =
      {
        d_queries = Solver.stats.Solver.queries - q0;
        d_cache_hits = Solver.stats.Solver.cache_hits - h0;
        d_sat_checks = Solver.stats.Solver.sat_checks - s0;
        d_unknowns = Solver.stats.Solver.unknowns - u0;
      };
  }

(* -- Merging ------------------------------------------------------------------------ *)

(** Pure sum of per-unit counters ([initial_candidates] included: units
    own disjoint κ sets, so per-unit counts partition the global one). *)
let merge_stats (a : stats) (b : stats) : stats =
  {
    iterations = a.iterations + b.iterations;
    implication_checks = a.implication_checks + b.implication_checks;
    initial_candidates = a.initial_candidates + b.initial_candidates;
    alpha_collapsed = a.alpha_collapsed + b.alpha_collapsed;
  }

(** Pure union of unit solutions (unit κ sets are disjoint by
    construction, so the merge direction is immaterial). *)
let merge_solutions (a : candidates) (b : candidates) : candidates =
  KMap.union (fun _ ps _ -> Some ps) a b

(** Dead qualifiers of a merged run: patterns with an initial instance
    in some κ of [initial], none of which survived into [final]. *)
let dead_qualifiers ~(initial : candidates) ~(final : candidates) :
    string list =
  let names_of asg =
    KMap.fold
      (fun _ ps acc ->
        List.fold_left (fun acc (_, ns) -> SSet.union ns acc) acc ps)
      asg SSet.empty
  in
  SSet.elements (SSet.diff (names_of initial) (names_of final))

(** Re-intern a partial that crossed a process boundary: every predicate
    in it is physically foreign after unmarshalling and must be mapped
    to this process's canonical nodes before it can meet native
    predicates (see {!Pred.rehasher}). *)
let rehash_partial (p : partial) : partial =
  let go = Pred.rehasher () in
  {
    p with
    pr_solution =
      KMap.map (List.map (fun (q, ns) -> (go q, ns))) p.pr_solution;
    pr_failures =
      List.map
        (fun (id, f) -> (id, { f with f_goal = go f.f_goal }))
        p.pr_failures;
  }

(* -- Solving ------------------------------------------------------------------------- *)

let solve ?(quals = Qualifier.defaults) ?(consts = []) ?(incremental = true)
    (wfs : Constr.wf list) (subs : Constr.sub list) : result =
  let collapsed = ref 0 in
  let initial = init_assignment ~consts ~collapsed quals wfs in
  let partial =
    solve_unit ~incremental ~elim:(fresh_elim ()) ~base:KMap.empty
      ~init:initial subs
  in
  partial.pr_stats.alpha_collapsed <- !collapsed;
  {
    solution = KMap.map (List.map fst) partial.pr_solution;
    failures = List.map snd partial.pr_failures;
    solver_stats = partial.pr_stats;
    dead_quals = dead_qualifiers ~initial ~final:partial.pr_solution;
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
