(** Public SMT interface: validity of quantifier-free EUFLIA implications.

    This is the module the liquid-type fixpoint talks to.  A query asks
    whether [hyps |- goal] is valid, i.e. whether [And hyps /\ Not goal]
    is unsatisfiable.  Results are cached (the fixpoint re-checks the same
    implications many times as the candidate solution shrinks), and global
    statistics are kept for the benchmark harness.

    With hash-consed predicates the cache is a hashtable keyed on the
    interned query: hashing is O(1) (memoized), bucket comparison is
    physical equality.  Each [Invalid] entry stores its falsifying model
    so cache hits repopulate {!last_cex} — previously a hit returned
    [Invalid] with a stale counterexample. *)

open Liquid_logic

type result = Valid | Invalid | Unknown

type stats = {
  mutable queries : int; (* total validity queries *)
  mutable cache_hits : int;
  mutable sat_checks : int; (* DPLL+theory invocations *)
  mutable unknowns : int;
  mutable time : float; (* seconds inside the solver *)
}

let stats = { queries = 0; cache_hits = 0; sat_checks = 0; unknowns = 0; time = 0.0 }

let reset_stats () =
  stats.queries <- 0;
  stats.cache_hits <- 0;
  stats.sat_checks <- 0;
  stats.unknowns <- 0;
  stats.time <- 0.0

let pp_stats ppf () =
  Fmt.pf ppf "queries=%d cache-hits=%d sat-checks=%d unknowns=%d time=%.3fs"
    stats.queries stats.cache_hits stats.sat_checks stats.unknowns stats.time

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

(** Counterexample values: re-exported from {!Theory} so consumers don't
    reach below the public SMT interface. *)
type cex_value = Theory.value = Vint of int | Vbool of bool

let pp_cex_value = Theory.pp_value

(* Entries keep the falsifying model of Invalid answers (empty for
   Valid/Unknown) so hits can restore [last_cex] — both the display form
   and the raw-label form — plus the deterministic work units the
   original SAT check cost, replayed on hits.  Replaying model and work
   makes every answer-bearing side channel cache-temperature-invariant:
   a warm re-run observes exactly what the cold run observed. *)
type centry = {
  ce_res : result;
  ce_cex : (string * cex_value) list;
  ce_raw : (string * cex_value) list;
  ce_work : int;
}

let cache : centry Pred.Tbl.t = Pred.Tbl.create 4096

let clear_cache () = Pred.Tbl.reset cache

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(** Counterexample for the most recent [Invalid] answer (values the
    query's source-level entities take in a falsifying model). *)
let last_cex : (string * cex_value) list ref = ref []

(** Counterexample of the most recent [Invalid] answer, under original
    (uncleaned) entity labels — the form a strict evaluator can resolve
    terms against without alpha-renaming collisions.  Restored on result
    cache hits from the cached entry, so it is identical whether the
    answer was freshly SAT-checked or replayed: callers must treat an
    empty value as "no model available". *)
let last_cex_raw : (string * cex_value) list ref = ref []

(** Deterministic work units of the most recently decided query: theory
    literals processed plus simplex pivots spent by its SAT check —
    measured on fresh checks, {e replayed} from the cache on hits, zero
    for trivially decided queries.  A proxy for query cost that, unlike
    wall-clock time, is a pure function of the query, so policy decisions
    made on it are reproducible across runs and cache temperatures. *)
let last_work : int ref = ref 0

(** Monotone sum of {!last_work} over all decided queries (replayed work
    included), for callers that meter spans of work via deltas. *)
let work_total : int ref = ref 0

(** Clear every module-level ref that carries {e answers} (or per-query
    diagnostics) from one verification run into the next, across the
    whole SMT stack: the counterexample refs of this module, {!Dpll} and
    {!Theory}, and the per-run instrumentation counters of {!Dpll},
    {!Theory} and {!Lia}.  A resident verification daemon calls this per
    request so it can never report a stale counterexample from a
    previous program; the pipeline calls it at the start of every run.

    Deliberately untouched: the result cache (its entries are keyed on
    interned queries and valid forever — clearing it is what
    {!clear_cache} is for) and the cumulative {!stats} counters, which
    every consumer (pipeline, benches) reads as before/after deltas and
    which must stay monotone while partition workers replay their
    movements into a parent process. *)
let reset_run_state () =
  last_cex := [];
  last_cex_raw := [];
  last_work := 0;
  Dpll.last_model := [];
  Dpll.last_model_raw := [];
  Theory.last_model := [];
  Theory.last_model_raw := [];
  Dpll.models_total := 0;
  Theory.nlits_total := 0;
  Simplex.npivots := 0;
  Lia.nnodes_total := 0

let check_formula (q : Pred.t) : result =
  stats.sat_checks <- stats.sat_checks + 1;
  last_cex_raw := [];
  let w0 = !Theory.nlits_total + !Simplex.npivots in
  let r =
    match Dpll.check_sat q with
    | Dpll.Unsat -> Valid
    | Dpll.Sat ->
        last_cex := !Dpll.last_model;
        last_cex_raw := !Dpll.last_model_raw;
        Invalid
    | Dpll.Unknown ->
        stats.unknowns <- stats.unknowns + 1;
        Unknown
  in
  last_work := max 1 (!Theory.nlits_total + !Simplex.npivots - w0);
  work_total := !work_total + !last_work;
  r

(* ------------------------------------------------------------------ *)
(* Hypothesis relevance pruning                                        *)
(* ------------------------------------------------------------------ *)

let pred_vars p = List.map fst (Pred.free_vars p)

(** Hypothesis relevance pruning: restrict hypotheses to those
    transitively sharing a variable with the goal.  Dropping hypotheses
    can only make an implication {e harder} to prove, so pruning is sound
    for a validity checker; the precision cost (a contradiction among
    pruned hypotheses is no longer detected) is the classic trade DSOLVE
    makes, and it shrinks queries dramatically: liquid environments embed
    every in-scope binding, most of which are irrelevant to any one
    obligation.

    Returns the indices (into [hyps]) retained against a seed predicate.
    Ground hypotheses are always retained.  Free-variable sets come
    memoized off the hash-consed nodes, so tagging is cheap; the closure
    itself is a breadth-first search over an inverted variable →
    hypothesis index, linear in total variable occurrences. *)
let prune_hyps_idx (hyps : Pred.t list) (seed : Pred.t) : int list =
  let vars = Array.of_list (List.map pred_vars hyps) in
  let n = Array.length vars in
  let var_hyps : (Liquid_common.Ident.t, int list) Hashtbl.t =
    Hashtbl.create (2 * n)
  in
  Array.iteri
    (fun i vs ->
      List.iter
        (fun v ->
          Hashtbl.replace var_hyps v
            (i :: (try Hashtbl.find var_hyps v with Not_found -> [])))
        vs)
    vars;
  let keep = Array.make n false in
  let seen : (Liquid_common.Ident.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      Queue.add v queue
    end
  in
  List.iter (fun (x, _) -> visit x) (Pred.free_vars seed);
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    match Hashtbl.find_opt var_hyps v with
    | None -> ()
    | Some is ->
        List.iter
          (fun i ->
            if not (keep.(i)) then begin
              keep.(i) <- true;
              List.iter visit vars.(i)
            end)
          is
  done;
  let kept_idx = ref [] in
  for i = n - 1 downto 0 do
    if vars.(i) = [] || keep.(i) then kept_idx := i :: !kept_idx
  done;
  !kept_idx

let prune_hyps (hyps : Pred.t list) (goal : Pred.t) : Pred.t list =
  let arr = Array.of_list hyps in
  List.map (fun i -> arr.(i)) (prune_hyps_idx hyps goal)

(* Shared decision core: trivial views, then cache (restoring the model
   side channels and replaying work on hits), then a fresh SAT check
   whose model and work are recorded in the entry. *)
let decide_interned (query : Pred.t) : result =
  match Pred.view query with
  | Pred.False ->
      last_work := 0;
      Valid
  | Pred.True ->
      last_cex_raw := [];
      last_work := 0;
      Invalid
  | _ -> (
      match Pred.Tbl.find_opt cache query with
      | Some e ->
          stats.cache_hits <- stats.cache_hits + 1;
          if e.ce_res = Invalid then last_cex := e.ce_cex;
          last_cex_raw := e.ce_raw;
          last_work := e.ce_work;
          work_total := !work_total + e.ce_work;
          e.ce_res
      | None ->
          let t0 = Unix.gettimeofday () in
          let r = check_formula query in
          stats.time <- stats.time +. (Unix.gettimeofday () -. t0);
          Pred.Tbl.replace cache query
            {
              ce_res = r;
              ce_cex = (if r = Invalid then !last_cex else []);
              ce_raw = (if r = Invalid then !last_cex_raw else []);
              ce_work = !last_work;
            };
          r)

(* Decide [And hyps => goal] with [hyps] taken verbatim (no pruning). *)
let check_pruned (hyps : Pred.t list) (goal : Pred.t) : result =
  decide_interned (Pred.conj (Pred.not_ goal :: hyps))

(** [check_valid ~kept hyps goal] decides whether the implication
    [kept /\ hyps => goal] holds in QF-EUFLIA.  [hyps] are subject to
    relevance pruning; [kept] hypotheses (typically path guards, whose
    mutual contradiction must stay detectable) are kept verbatim and seed
    the relevance closure. *)
let check_valid ?(kept : Pred.t list = []) (hyps : Pred.t list) (goal : Pred.t)
    : result =
  stats.queries <- stats.queries + 1;
  let hyps = prune_hyps hyps (Pred.conj (goal :: kept)) @ kept in
  check_pruned hyps goal

(** Like {!check_valid}, but also returns the indices of [hyps] retained
    by relevance pruning, so incremental callers can record which
    hypotheses the verdict could depend on. *)
let check_valid_idx ?(kept : Pred.t list = []) (hyps : Pred.t list)
    (goal : Pred.t) : result * int list =
  stats.queries <- stats.queries + 1;
  let idx = prune_hyps_idx hyps (Pred.conj (goal :: kept)) in
  let arr = Array.of_list hyps in
  let hyps = List.map (fun i -> arr.(i)) idx @ kept in
  (check_pruned hyps goal, idx)

(** A pruned implication query prepared once and decided later: the
    interned cache key plus the hypothesis indices retained by pruning.
    Lets the incremental fixpoint probe the cache for an instance and,
    on a miss, SAT-check the very same query without rebuilding it. *)
type prepared = { query : Pred.t; pruned_idx : int list }

let prepare ?(kept : Pred.t list = []) (hyps : Pred.t list) (goal : Pred.t)
    : prepared =
  let idx = prune_hyps_idx hyps (Pred.conj (goal :: kept)) in
  let arr = Array.of_list hyps in
  let pruned = List.map (fun i -> arr.(i)) idx @ kept in
  { query = Pred.conj (Pred.not_ goal :: pruned); pruned_idx = idx }

(** Resolve a prepared query against the result cache without ever
    invoking the SAT solver: [None] means deciding it would need a fresh
    SAT check.  Counts as a query (and cache hit) only when it
    answers. *)
let probe_query (p : prepared) : result option =
  let hit r =
    stats.queries <- stats.queries + 1;
    Some r
  in
  match Pred.view p.query with
  | Pred.False ->
      last_work := 0;
      hit Valid
  | Pred.True ->
      last_cex_raw := [];
      last_work := 0;
      hit Invalid
  | _ -> (
      match Pred.Tbl.find_opt cache p.query with
      | Some e ->
          stats.cache_hits <- stats.cache_hits + 1;
          if e.ce_res = Invalid then last_cex := e.ce_cex;
          last_cex_raw := e.ce_raw;
          last_work := e.ce_work;
          work_total := !work_total + e.ce_work;
          hit e.ce_res
      | None -> None)

(** Decide a prepared query (cache, then SAT). *)
let check_query (p : prepared) : result =
  stats.queries <- stats.queries + 1;
  decide_interned p.query

(** Satisfiability of a conjunction (used by tests). *)
let is_sat (p : Pred.t) : bool = Dpll.check_sat p <> Dpll.Unsat
