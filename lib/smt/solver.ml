(** Public SMT interface: validity of quantifier-free EUFLIA implications.

    This is the module the liquid-type fixpoint talks to.  A query asks
    whether [hyps |- goal] is valid, i.e. whether [And hyps /\ Not goal]
    is unsatisfiable.  Results are cached (the fixpoint re-checks the same
    implications many times as the candidate solution shrinks), and global
    statistics are kept for the benchmark harness.

    With hash-consed predicates the cache is a hashtable keyed on the
    interned query: hashing is O(1) (memoized), bucket comparison is
    physical equality.  An [Invalid] answer carries its falsifying model,
    and the cache stores the answer whole, so a hit returns the model the
    original check found. *)

open Liquid_logic

(** Counterexample values: re-exported from {!Theory} so consumers don't
    reach below the public SMT interface. *)
type cex_value = Theory.value = Vint of int | Vbool of bool

let pp_cex_value = Theory.pp_value

type cex = {
  display : (string * cex_value) list;
  raw : (string * cex_value) list;
}

type result = Valid | Invalid of cex | Unknown

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

(* Entries keep the answer, model included, plus the deterministic work
   units the original SAT check cost, replayed on hits: a warm re-run
   observes exactly the answers and work the cold run observed. *)
type centry = { ce_res : result; ce_work : int }

let cache : centry Pred.Tbl.t = Pred.Tbl.create 4096

let clear_cache () = Pred.Tbl.reset cache

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(** Monotone sum of the deterministic work units of every decided query:
    theory literals processed plus simplex pivots spent by its SAT check
    — measured on fresh checks, {e replayed} from the cache on hits, zero
    for trivially decided queries.  Unlike wall-clock time it is a pure
    function of the queries, so policy decisions made on its deltas are
    reproducible across runs and cache temperatures. *)
let work_total : int ref = ref 0

(** Reset the per-run instrumentation counters of {!Dpll}, {!Theory},
    {!Simplex} and {!Lia}.  The pipeline calls this at the start of
    every run.

    Deliberately untouched: the result cache (its entries are keyed on
    interned queries and valid forever — clearing it is what
    {!clear_cache} is for) and the cumulative {!stats} counters and
    {!work_total}, which every consumer reads as before/after deltas. *)
let reset_run_state () =
  Dpll.models_total := 0;
  Theory.nlits_total := 0;
  Simplex.npivots := 0;
  Lia.nnodes_total := 0

(* A fresh SAT check of [q] and the work units it cost. *)
let check_formula (q : Pred.t) : result * int =
  stats.sat_checks <- stats.sat_checks + 1;
  let w0 = !Theory.nlits_total + !Simplex.npivots in
  let r =
    match Dpll.check_sat q with
    | Dpll.Unsat -> Valid
    | Dpll.Sat (display, raw) -> Invalid { display; raw }
    | Dpll.Unknown ->
        stats.unknowns <- stats.unknowns + 1;
        Unknown
  in
  (r, max 1 (!Theory.nlits_total + !Simplex.npivots - w0))

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

(** A pruned implication query: the interned cache key plus the
    hypothesis indices retained by pruning. *)
type prepared = { query : Pred.t; pruned_idx : int list }

(** [prepare ~kept hyps goal] builds the query for [kept /\ hyps => goal]:
    [hyps] are subject to relevance pruning; [kept] hypotheses (typically
    path guards, whose mutual contradiction must stay detectable) are
    kept verbatim and seed the relevance closure. *)
let prepare ?(kept : Pred.t list = []) (hyps : Pred.t list) (goal : Pred.t)
    : prepared =
  let idx = prune_hyps_idx hyps (Pred.conj (goal :: kept)) in
  let arr = Array.of_list hyps in
  let pruned = List.map (fun i -> arr.(i)) idx @ kept in
  { query = Pred.conj (Pred.not_ goal :: pruned); pruned_idx = idx }

(** Decide a prepared query: trivial views, then the cache (replaying
    the stored answer and work on a hit), then a fresh SAT check whose
    answer and work are stored. *)
let check_query (p : prepared) : result =
  stats.queries <- stats.queries + 1;
  match Pred.view p.query with
  | Pred.False -> Valid
  | Pred.True -> Invalid { display = []; raw = [] }
  | _ -> (
      match Pred.Tbl.find_opt cache p.query with
      | Some e ->
          stats.cache_hits <- stats.cache_hits + 1;
          work_total := !work_total + e.ce_work;
          e.ce_res
      | None ->
          let t0 = Unix.gettimeofday () in
          let r, work = check_formula p.query in
          stats.time <- stats.time +. (Unix.gettimeofday () -. t0);
          work_total := !work_total + work;
          Pred.Tbl.replace cache p.query { ce_res = r; ce_work = work };
          r)

(** [check_query (prepare ~kept hyps goal)]. *)
let check_valid ?kept (hyps : Pred.t list) (goal : Pred.t) : result =
  check_query (prepare ?kept hyps goal)

(** Satisfiability of a conjunction (used by tests). *)
let is_sat (p : Pred.t) : bool =
  match Dpll.check_sat p with Dpll.Unsat -> false | _ -> true
