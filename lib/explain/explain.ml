(** Error explanation for failed verification runs.

    The fixpoint reports {e that} an obligation is unprovable; this
    module assembles {e why} from state the pipeline already has — the
    final solution, the constraint system, and the solver's relevance
    and counterexample machinery — into one {!explanation} per failure:

    - a {e minimal hypothesis core}: when the environment outright
      refutes the goal (a genuine contradiction), a deletion-minimal set
      of antecedent facts that still refutes it — dropping any member
      loses the refutation; when the goal is merely unprovable, the
      hypotheses relevance pruning retains (the only facts the verdict
      can depend on).  Each core fact carries its provenance: the
      environment binder that contributed it and the κ whose solution
      instance it is ({!Constr.embed_env_trace}).

    - a {e blame path}: a breadth-first walk backwards through the
      κ-dependency graph ({!Constr.reads}/{!Constr.writes}) from the κs
      of the core (and the failing constraint's left-hand side) to the
      program points whose constraints weakened them, rendered as
      source-located steps.

    - a {e concrete witness}: the falsifying model of the final check,
      as source-level valuations (booleans as booleans).

    - a {e repair hint}: a bounded search over the instantiated
      qualifier set Q* — the supplied patterns plus the default set as
      near-misses — for an instance whose addition to the blamed κs
      (every blamed κ where it is well-formed, as a qualifier file
      would add it) (a) discharges the failing obligation and (b)
      survives every constraint that weakens those κs.  Survival under
      the augmented assignment makes the hint {e sound}: weakening is
      monotone, so the augmented assignment is itself a valid
      (inductive) fixpoint, and the real solver, given a qualifier
      with that instance, infers one at least as strong.

    Explanation runs {e post-fixpoint} on per-unit state only: it needs
    the final solution and the constraint system, never the engine's
    worklist — which is why it composes with partitioned solving.

    All searches are deterministic: candidate instances are tried in
    construction order (the order the fixpoint itself uses), writers in
    [sub_id] order, frontier κs in ascending order — so explanations
    are byte-identical across cache replays and process boundaries. *)

open Liquid_common
open Liquid_logic
open Liquid_infer
open Liquid_smt
module ISet = Set.Make (Int)

type core_hyp = {
  ch_pred : Pred.t;
  ch_binder : Ident.t option; (* contributing env binder; [None]: guard/lhs *)
  ch_kvar : Rtype.kvar option; (* κ whose solution instance this is *)
}

type blame_step = {
  bs_kvar : Rtype.kvar;
  bs_origins : Constr.origin list;
      (* program points whose constraints weakened this κ, in [sub_id]
         order, deduplicated by span and reason *)
}

type repair = {
  rp_kvar : Rtype.kvar;
  rp_pred : Pred.t; (* the qualifier instance, over ν *)
  rp_loc : Loc.t; (* where the blamed κ is constrained *)
}

type explanation = {
  ex_origin : Constr.origin;
  ex_goal : Pred.t;
  ex_count : int; (* identical failures folded into this one *)
  ex_witness : (string * Solver.cex_value) list;
  ex_refuted : bool; (* the core refutes the goal outright *)
  ex_core : core_hyp list;
  ex_blame : blame_step list;
  ex_repair : repair option;
  ex_unexplained : string option; (* set: no core/blame/repair computed *)
}

type result = { exs : explanation list; skipped : int }

(* -- Bounds ---------------------------------------------------------- *)

(* Per-failure budget of candidate (local + survival) tests, the repair
   search's only bound: it keeps pathological qualifier sets from turning
   explanation into a second fixpoint run.  256 exhausts before reaching
   the right instance on programs with a second concern in scope (more
   constants and scope variables inflate the candidate pool); each probe
   is one query over an antecedent compiled once per explanation run, so
   the larger budget costs tens of milliseconds, not a second fixpoint
   run. *)
let max_repair_tests = 512

(* Blame walks are capped in depth and breadth: past a few levels the
   κ-closure of real programs is the whole call graph, which explains
   nothing. *)
let max_blame_depth = 4
let max_blame_steps = 12

(* -- Context ---------------------------------------------------------- *)

type ctx = {
  lookup : Rtype.kvar -> Pred.t list;
  writers : (Rtype.kvar, Constr.sub list) Hashtbl.t; (* in sub_id order *)
  sub_by_id : (int, Constr.sub) Hashtbl.t;
  wfs_of : (Rtype.kvar, Constr.wf list) Hashtbl.t;
  pool : Qualifier.t list; (* user patterns, then defaults as near-misses *)
  consts : int list;
  cand_cache : (Rtype.kvar, Pred.t list) Hashtbl.t;
  antecedents : (int, Fixpoint.antecedent) Hashtbl.t; (* by sub_id *)
}

let make_ctx ~wfs ~subs ~solution ~quals ~consts : ctx =
  let writers = Hashtbl.create 64 in
  let sub_by_id = Hashtbl.create 64 in
  List.iter
    (fun (c : Constr.sub) ->
      Hashtbl.replace sub_by_id c.Constr.sub_id c;
      match Constr.writes c with
      | None -> ()
      | Some k ->
          Hashtbl.replace writers k
            (c :: (try Hashtbl.find writers k with Not_found -> [])))
    subs;
  Hashtbl.iter
    (fun k cs ->
      Hashtbl.replace writers k
        (List.sort
           (fun (a : Constr.sub) b -> Int.compare a.Constr.sub_id b.Constr.sub_id)
           cs))
    (Hashtbl.copy writers);
  let wfs_of = Hashtbl.create 64 in
  List.iter
    (fun (w : Constr.wf) ->
      Hashtbl.replace wfs_of w.Constr.wf_kvar
        (w :: (try Hashtbl.find wfs_of w.Constr.wf_kvar with Not_found -> [])))
    (List.rev wfs);
  {
    lookup = (fun k -> Constr.sol_find solution k);
    writers;
    sub_by_id;
    wfs_of;
    (* Each pattern once, at its last occurrence: a run's [quals]
       usually begin with the defaults, and an instance generated twice
       already sits at its last generation, so the candidates keep their
       order. *)
    pool =
      List.rev
        (Listx.dedup_ordered
           ~compare:(fun (a : Qualifier.t) b -> compare (a.name, a.body) (b.name, b.body))
           (List.rev (quals @ Qualifier.defaults @ Qualifier.list_defaults)));
    consts;
    cand_cache = Hashtbl.create 16;
    antecedents = Hashtbl.create 64;
  }

let writers_of ctx k = try Hashtbl.find ctx.writers k with Not_found -> []

(* The repair search expands a constraint's antecedent under one
   augmented lookup per probe, so it is compiled once per explanation
   run, memoized as the weakening loop compiles it. *)
let antecedent_of ctx (c : Constr.sub) : Fixpoint.antecedent =
  match Hashtbl.find_opt ctx.antecedents c.Constr.sub_id with
  | Some a -> a
  | None ->
      let a = Fixpoint.compile_antecedent ~inst:Constr.memoized_inst c in
      Hashtbl.add ctx.antecedents c.Constr.sub_id a;
      a

(* -- Traced antecedent ------------------------------------------------ *)

(* The failing constraint's antecedent with per-fact provenance: the
   facts and kept facts (lhs preds, then guards) of
   {!Fixpoint.hypotheses}, expanded from the same slots. *)
let traced_antecedent ctx (c : Constr.sub) :
    (Pred.t * Constr.fact_origin) list * (Pred.t * Constr.fact_origin) list =
  let facts, guards = Constr.embed_env_trace ctx.lookup c.Constr.sub_env in
  let lhs =
    List.map
      (fun (p, k) -> (p, { Constr.fo_binder = None; fo_kvar = k }))
      (Constr.expand ctx.lookup
         (Constr.compile_refinement
            (Fixpoint.vv_value c.Constr.vv_sort)
            c.Constr.lhs))
  in
  let guards =
    List.map
      (fun g -> (g, { Constr.fo_binder = None; fo_kvar = None }))
      guards
  in
  (facts, lhs @ guards)

(* -- Core minimization ------------------------------------------------ *)

(* Validity of [conj hyps => goal] with every hypothesis exempt from
   pruning — the precise test deletion minimization needs (pruning a
   candidate core would make "dropping this fact loses the refutation"
   unobservable). *)
let valid_with (hyps : Pred.t list) (goal : Pred.t) : bool =
  Solver.check_valid ~kept:hyps [] goal = Solver.Valid

(* Deletion-minimize [core] while [conj core => goal] stays valid:
   drop each member (in order) whose removal preserves validity.  The
   result is a local minimum: dropping any single remaining member
   breaks the implication. *)
let minimize (core : (Pred.t * Constr.fact_origin) list) (goal : Pred.t) :
    (Pred.t * Constr.fact_origin) list =
  let rec go kept = function
    | [] -> List.rev kept
    | h :: rest ->
        let others = List.rev_append kept rest in
        if valid_with (List.map fst others) goal then go kept rest
        else go (h :: kept) rest
  in
  go [] core

let core_hyp_of (p, (o : Constr.fact_origin)) =
  { ch_pred = p; ch_binder = o.Constr.fo_binder; ch_kvar = o.Constr.fo_kvar }

(* The minimal hypothesis core of a failure.  Refuted case (the
   environment contradicts the goal): seed with the hypotheses relevance
   pruning retains for the refutation query, then deletion-minimize.
   Unproven case: the retained hypotheses of the failing query itself —
   the only facts its verdict can depend on. *)
let core_of ctx (c : Constr.sub) (goal : Pred.t) :
    bool * core_hyp list =
  let facts, kept = traced_antecedent ctx c in
  let kept = List.filter (fun (p, _) -> not (Pred.is_true p)) kept in
  let fact_preds = List.map fst facts and kept_preds = List.map fst kept in
  let not_goal = Pred.not_ goal in
  let fact_arr = Array.of_list facts in
  let retained (p : Solver.prepared) =
    List.map (fun i -> fact_arr.(i)) p.Solver.pruned_idx @ kept
  in
  let idx = Solver.index ~kept:kept_preds fact_preds in
  let refute = Solver.prepare idx not_goal in
  if Solver.check_query refute = Solver.Valid then
    (true, List.map core_hyp_of (minimize (retained refute) not_goal))
  else
    (* Only the pruning is read: the query is not decided. *)
    (false, List.map core_hyp_of (retained (Solver.prepare idx goal)))

(* -- Blame path -------------------------------------------------------- *)

let dedup_origins (os : Constr.origin list) : Constr.origin list =
  Listx.dedup_ordered
    ~compare:(fun (a : Constr.origin) b ->
      match Loc.compare a.Constr.loc b.Constr.loc with
      | 0 -> String.compare a.Constr.reason b.Constr.reason
      | n -> n)
    os

(* The backward κ-closure of the seeds under "κs read by writers of":
   a breadth-first walk from the seed κs to the constraints that
   weakened them, then to the κs those constraints read.  κs come out
   in level order (most proximate first), ascending within a level —
   deterministic whatever the solve schedule was — each with its level
   (0 for the seeds).  The closure is uncapped: the repair search must
   see every κ the verdict can depend on — a mini-fixpoint restricted to
   a truncated set would collapse at the first missing intermediate κ —
   and it is bounded by the failing constraint's solve unit anyway. *)
let closure_of ctx (seeds : Rtype.kvar list) : (Rtype.kvar * int) list =
  let order = ref [] in
  let visited = ref ISet.empty in
  let frontier = ref (Listx.dedup_ordered ~compare:Int.compare seeds) in
  let level = ref 0 in
  while !frontier <> [] do
    let next = ref ISet.empty in
    List.iter
      (fun k ->
        if not (ISet.mem k !visited) then begin
          visited := ISet.add k !visited;
          order := (k, !level) :: !order;
          List.iter
            (fun w ->
              List.iter
                (fun k' ->
                  if not (ISet.mem k' !visited) then next := ISet.add k' !next)
                (Constr.reads w))
            (writers_of ctx k)
        end)
      (List.sort Int.compare !frontier);
    frontier := ISet.elements !next;
    incr level
  done;
  List.rev !order

(* The rendered blame path: the first [max_blame_steps] κs of the
   closure within [max_blame_depth] levels, each with the program points
   whose constraints weakened it. *)
let blame_of ctx (closure : (Rtype.kvar * int) list) : blame_step list =
  List.filter (fun (_, level) -> level < max_blame_depth) closure
  |> Listx.take max_blame_steps
  |> List.map (fun (k, _) ->
         {
           bs_kvar = k;
           bs_origins =
             dedup_origins
               (List.map
                  (fun (w : Constr.sub) -> w.Constr.origin)
                  (writers_of ctx k));
         })

(* -- Repair hints ------------------------------------------------------ *)

(* Candidate instances for κ: the fixpoint's initial assignment of κ
   under the qualifier pool ({!Fixpoint.init_assignment}), minus
   instances already in the κ's solution.  Construction order — the
   order the fixpoint itself tries instances — makes the search
   deterministic. *)
let candidates_for ctx (k : Rtype.kvar) : Pred.t list =
  match Hashtbl.find_opt ctx.cand_cache k with
  | Some cs -> cs
  | None ->
      let wfsk = try Hashtbl.find ctx.wfs_of k with Not_found -> [] in
      let inter =
        Fixpoint.init_assignment ~consts:ctx.consts ctx.pool wfsk
        |> Constr.KMap.find_opt k |> Option.value ~default:[] |> List.map fst
      in
      let current = ctx.lookup k in
      let cs =
        List.filter
          (fun p ->
            (not (Pred.is_true p)) && not (List.exists (Pred.equal p) current))
          inter
      in
      Hashtbl.add ctx.cand_cache k cs;
      cs

(* A user applies a hint by adding a qualifier {e pattern}, which the
   fixpoint instantiates at every κ where it is well-formed and then
   {e weakens} — keeping the instance exactly where it survives.  So a
   candidate instance [q] is evaluated the same way, restricted to the
   failure's backward κ-closure: start with [q] at every closure κ
   where it is a candidate, repeatedly drop it from κs where some
   writer refutes it under the augmented assignment, and keep what is
   left ([K] below).

   The loop is the weakening fixpoint of a one-instance candidate set,
   so what remains is inductive: monotonicity keeps every existing
   solution instance valid under the (stronger) augmented hypotheses,
   and [q] itself validates at every writer of every κ of [K] — checked
   under the augmented lookup, mutual support between [K]'s κs
   included.  The real solver, given a pattern with instance [q],
   starts from an initial assignment at least as strong and weakens to
   the greatest inductive assignment below it, which therefore keeps at
   least [K] — the hint is sound. *)
let augmented ctx (ks : ISet.t) (q : Pred.t) : Rtype.kvar -> Pred.t list =
 fun k' ->
  let ps = ctx.lookup k' in
  if ISet.mem k' ks then ps @ [ q ] else ps

(* The greatest subset of [ks0] at which [q] is inductive, or [None]
   when the query budget runs out mid-search (an unfinished search must
   not produce an unverified hint). *)
let inductive_subset ctx budget (ks0 : ISet.t) (q : Pred.t) : ISet.t option =
  let exception Out_of_budget in
  let holds_at lookup' (k : Rtype.kvar) : bool =
    List.for_all
      (fun (w : Constr.sub) ->
        match w.Constr.rhs with
        | Constr.Rkvar (_, theta) ->
            if !budget <= 0 then raise Out_of_budget;
            decr budget;
            let hyps, kept =
              Fixpoint.expand_antecedent lookup' (antecedent_of ctx w)
            in
            Solver.check_valid ~kept hyps (Pred.subst theta q) = Solver.Valid
        | Constr.Rconc _ -> true)
      (writers_of ctx k)
  in
  let rec weaken ks =
    let lookup' = augmented ctx ks q in
    let kept = ISet.filter (holds_at lookup') ks in
    if ISet.equal kept ks then ks else weaken kept
  in
  match weaken ks0 with ks -> Some ks | exception Out_of_budget -> None

(* Does the failing obligation discharge under the augmented
   assignment? *)
let discharges ctx budget (c : Constr.sub) (goal : Pred.t) (ks : ISet.t)
    (q : Pred.t) : bool =
  !budget > 0
  && begin
       decr budget;
       let hyps, kept =
         Fixpoint.expand_antecedent (augmented ctx ks q) (antecedent_of ctx c)
       in
       Solver.check_valid ~kept hyps goal = Solver.Valid
     end

let repair_of ctx (c : Constr.sub) (goal : Pred.t)
    (kvars : Rtype.kvar list) : repair option =
  let budget = ref max_repair_tests in
  (* Candidates in closure order (most proximate κ first), deduplicated;
     each is tried at every closure κ where it is well-formed. *)
  let cands =
    List.concat_map
      (fun k -> List.map (fun q -> (k, q)) (candidates_for ctx k))
      kvars
  in
  let seen = Pred.Tbl.create 32 in
  let rec try_cands = function
    | [] -> None
    | (k0, q) :: rest ->
        if !budget <= 0 then None
        else if Pred.Tbl.mem seen q then try_cands rest
        else begin
          Pred.Tbl.add seen q ();
          let ks0 =
            ISet.of_list
              (List.filter
                 (fun k -> List.exists (Pred.equal q) (candidates_for ctx k))
                 kvars)
          in
          match inductive_subset ctx budget ks0 q with
          | Some ks
            when (not (ISet.is_empty ks)) && discharges ctx budget c goal ks q
            ->
              (* Anchor the hint at the most proximate κ that kept the
                 instance. *)
              let k_hint =
                match List.find_opt (fun k -> ISet.mem k ks) kvars with
                | Some k -> k
                | None -> k0
              in
              let loc =
                match writers_of ctx k_hint with
                | w :: _ -> w.Constr.origin.Constr.loc
                | [] -> c.Constr.origin.Constr.loc
              in
              Some { rp_kvar = k_hint; rp_pred = q; rp_loc = loc }
          | _ -> try_cands rest
        end
  in
  try_cands cands

(* -- Entry ------------------------------------------------------------- *)

let explain_failure ctx ((f : Fixpoint.failure), count) : explanation =
  let base =
    {
      ex_origin = f.Fixpoint.f_origin;
      ex_goal = f.Fixpoint.f_goal;
      ex_count = count;
      ex_witness = f.Fixpoint.f_cex;
      ex_refuted = false;
      ex_core = [];
      ex_blame = [];
      ex_repair = None;
      ex_unexplained = None;
    }
  in
  match Hashtbl.find_opt ctx.sub_by_id f.Fixpoint.f_sub_id with
  | None ->
      (* A failure with no constraint in hand (foreign report): witness
         only. *)
      { base with ex_unexplained = Some "originating constraint unavailable" }
  | Some c ->
      let refuted, core = core_of ctx c f.Fixpoint.f_goal in
      (* Seed with every κ the verdict can depend on: those whose
         instances made the core, plus everything the constraint reads
         (environment and left-hand side) — a κ whose solution is too
         weak to contribute any fact is precisely the one worth
         blaming. *)
      let seeds =
        List.filter_map (fun h -> h.ch_kvar) core @ Constr.reads c
      in
      let closure = closure_of ctx seeds in
      let blame = blame_of ctx closure in
      let repair = repair_of ctx c f.Fixpoint.f_goal (List.map fst closure) in
      { base with ex_refuted = refuted; ex_core = core; ex_blame = blame;
        ex_repair = repair }

let explain ?(limit = 5) ~(wfs : Constr.wf list) ~(subs : Constr.sub list)
    ~(solution : Constr.solution) ~(quals : Qualifier.t list)
    ~(consts : int list) (failures : (Fixpoint.failure * int) list) : result =
  let ctx = make_ctx ~wfs ~subs ~solution ~quals ~consts in
  let explained = Listx.take limit failures in
  {
    exs = List.map (explain_failure ctx) explained;
    skipped = max 0 (List.length failures - limit);
  }

(* -- Process boundaries ------------------------------------------------ *)

(** Re-intern an explanation set that crossed a process boundary (see
    {!Pred.rehasher}): every predicate in it must map back to the
    canonical local nodes before it meets native values. *)
let rehash (r : result) : result =
  let go = Pred.rehasher () in
  {
    r with
    exs =
      List.map
        (fun ex ->
          {
            ex with
            ex_goal = go ex.ex_goal;
            ex_core =
              List.map (fun h -> { h with ch_pred = go h.ch_pred }) ex.ex_core;
            ex_repair =
              Option.map
                (fun rp -> { rp with rp_pred = go rp.rp_pred })
                ex.ex_repair;
          })
        r.exs;
  }

(* -- Printing ---------------------------------------------------------- *)

let pp_witness ppf (w : (string * Solver.cex_value) list) =
  Fmt.pf ppf "%a"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (x, v) ->
          Fmt.pf ppf "%s = %a" x Solver.pp_cex_value v))
    (Listx.take 6 w)

let pp_core_hyp ppf (h : core_hyp) =
  Pred.pp ppf h.ch_pred;
  (match (h.ch_binder, h.ch_kvar) with
  | Some x, Some k -> Fmt.pf ppf "   (%a, from k%d)" Ident.pp x k
  | Some x, None -> Fmt.pf ppf "   (%a)" Ident.pp x
  | None, Some k -> Fmt.pf ppf "   (from k%d)" k
  | None, None -> ())

let pp_blame_step ppf (s : blame_step) =
  match s.bs_origins with
  | [] -> Fmt.pf ppf "k%d is unconstrained" s.bs_kvar
  | os ->
      Fmt.pf ppf "k%d weakened at %a" s.bs_kvar
        Fmt.(
          list ~sep:(any "; ") (fun ppf (o : Constr.origin) ->
              Fmt.pf ppf "%a (%s)" Loc.pp o.Constr.loc o.Constr.reason))
        (Listx.take 4 os)

let pp_explanation ppf (ex : explanation) =
  Fmt.pf ppf "@[<v>%a: %s" Loc.pp ex.ex_origin.Constr.loc
    ex.ex_origin.Constr.reason;
  if ex.ex_count > 1 then Fmt.pf ppf " (×%d)" ex.ex_count;
  Fmt.pf ppf "@,  unprovable obligation: %a" Pred.pp ex.ex_goal;
  (match ex.ex_witness with
  | [] -> ()
  | w -> Fmt.pf ppf "@,  witness: %a" pp_witness w);
  (match ex.ex_unexplained with
  | Some why -> Fmt.pf ppf "@,  unexplained: %s" why
  | None ->
      (match ex.ex_core with
      | [] -> ()
      | core ->
          Fmt.pf ppf "@,  %s:"
            (if ex.ex_refuted then
               "minimal core (these facts contradict the obligation)"
             else "relevant hypotheses");
          List.iter (fun h -> Fmt.pf ppf "@,    %a" pp_core_hyp h) core);
      (match ex.ex_blame with
      | [] -> ()
      | blame ->
          Fmt.pf ppf "@,  blame path:";
          List.iter (fun s -> Fmt.pf ppf "@,    %a" pp_blame_step s) blame);
      (match ex.ex_repair with
      | None -> ()
      | Some rp ->
          Fmt.pf ppf
            "@,  repair hint: adding qualifier `%a` to k%d at %a would fix \
             this"
            Pred.pp rp.rp_pred rp.rp_kvar Loc.pp rp.rp_loc));
  Fmt.pf ppf "@]"
