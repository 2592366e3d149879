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
module Ident = Liquid_common.Ident

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
   units the original SAT check cost, replayed on hits, so the work
   meter reads the same whether a query is decided fresh or repeats.
   The cache lives for one run: {!reset_run_state} empties it. *)
type centry = { ce_res : result; ce_work : int }

let cache : centry Pred.Tbl.t = Pred.Tbl.create 4096

let clear_cache () = Pred.Tbl.reset cache

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(** Monotone sum of the deterministic work units of every decided query:
    theory literals processed plus simplex pivots spent by its SAT check
    ({!Dpll.check_sat}, which also counts the pivots of a kept base
    state) — measured on fresh checks, {e replayed} from the cache on
    hits, zero for trivially decided queries.  Unlike wall-clock time it
    is a pure function of the queries, so policy decisions made on its
    deltas are reproducible across runs and cache temperatures. *)
let work_total : int ref = ref 0

(** Empty the result cache, drop the kept base state of {!Dpll} and
    reset the per-run instrumentation counters of {!Dpll}, {!Theory},
    {!Simplex} and {!Lia}.  The pipeline
    calls this at the start of every run, so a run's cache hits are its
    own.

    Deliberately untouched: the cumulative {!stats} counters and
    {!work_total}, which every consumer reads as before/after deltas. *)
let reset_run_state () =
  clear_cache ();
  Dpll.forget_base ();
  Dpll.models_total := 0;
  Theory.nlits_total := 0;
  Simplex.npivots := 0;
  Lia.nnodes_total := 0

(* A fresh SAT check of [q] and the work units it cost. *)
let check_formula (q : Pred.t) : result * int =
  stats.sat_checks <- stats.sat_checks + 1;
  let r, work = Dpll.check_sat q in
  let r =
    match r with
    | Dpll.Unsat -> Valid
    | Dpll.Sat (display, raw) -> Invalid { display; raw }
    | Dpll.Unknown ->
        stats.unknowns <- stats.unknowns + 1;
        Unknown
  in
  (r, max 1 work)

(* ------------------------------------------------------------------ *)
(* Hypothesis relevance pruning                                        *)
(* ------------------------------------------------------------------ *)

(** Hypothesis relevance pruning: restrict hypotheses to those
    transitively sharing a variable with the goal.  Dropping hypotheses
    can only make an implication {e harder} to prove, so pruning is sound
    for a validity checker; the precision cost (a contradiction among
    pruned hypotheses is no longer detected) is the classic trade DSOLVE
    makes, and it shrinks queries dramatically: liquid environments embed
    every in-scope binding, most of which are irrelevant to any one
    obligation.

    The transitive closure of "shares a variable" partitions the
    non-ground hypotheses into components, which depend on the
    hypotheses alone: an index finds them once per hypothesis set, by
    union–find over variables, and each goal then retains the ground
    hypotheses plus every component a seed variable touches.  Free
    variables come memoized off the hash-consed nodes. *)
type index = {
  hyps : Pred.t array;
  kept : Pred.t list;
  comp : int array; (* hypothesis -> component, -1 when ground *)
  ncomps : int; (* components are numbered below [ncomps] *)
  var_comp : int Ident.Tbl.t; (* variable -> component *)
  kept_touched : bool array option;
      (* components the kept facts' variables touch; [None] when a kept
         fact is [ff], which empties every seed *)
}

(* [Pred.conj ps] is [ff] exactly when one of the flattened conjuncts
   is. *)
let flat_false p =
  match Pred.view p with
  | Pred.False -> true
  | Pred.And qs -> List.exists Pred.is_false qs
  | _ -> false

(* Mark the components of [vars] in [touched]. *)
let touch var_comp (touched : bool array) vars =
  List.iter
    (fun (x, _) ->
      match Ident.Tbl.find_opt var_comp x with
      | Some c -> touched.(c) <- true
      | None -> ())
    vars

let index ?(kept : Pred.t list = []) (hyps : Pred.t list) : index =
  let hyps = Array.of_list hyps in
  (* Number the variables, then union the variables of each hypothesis;
     a component is named by its root variable's number. *)
  let var_comp = Ident.Tbl.create (2 * Array.length hyps + 1) in
  let ids =
    Array.map
      (fun h ->
        List.map
          (fun (x, _) ->
            match Ident.Tbl.find_opt var_comp x with
            | Some v -> v
            | None ->
                let v = Ident.Tbl.length var_comp in
                Ident.Tbl.add var_comp x v;
                v)
          (Pred.free_vars h))
      hyps
  in
  let parent = Array.init (Ident.Tbl.length var_comp) Fun.id in
  let rec find v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let r = find p in
      parent.(v) <- r;
      r
    end
  in
  Array.iter
    (function
      | [] -> ()
      | v :: vs -> List.iter (fun w -> parent.(find w) <- find v) vs)
    ids;
  let comp = Array.map (function [] -> -1 | v :: _ -> find v) ids in
  Ident.Tbl.filter_map_inplace (fun _ v -> Some (find v)) var_comp;
  let ncomps = Array.length parent in
  let kept_touched =
    if List.exists flat_false kept then None
    else begin
      let t = Array.make ncomps false in
      List.iter (fun k -> touch var_comp t (Pred.free_vars k)) kept;
      Some t
    end
  in
  { hyps; kept; comp; ncomps; var_comp; kept_touched }

(** The hypotheses (indices, increasing) relevant to [goal]: the ground
    ones, and those in a component touched by a free variable of
    [Pred.conj (goal :: kept)] — none when that conjunction is [ff]. *)
let relevant (idx : index) (goal : Pred.t) : int list =
  let touched =
    match idx.kept_touched with
    | Some t when not (flat_false goal) ->
        let t = Array.copy t in
        touch idx.var_comp t (Pred.free_vars goal);
        t
    | _ -> Array.make idx.ncomps false
  in
  let acc = ref [] in
  for i = Array.length idx.comp - 1 downto 0 do
    let c = idx.comp.(i) in
    if c < 0 || touched.(c) then acc := i :: !acc
  done;
  !acc

(** A pruned implication query: the interned cache key plus the
    hypothesis indices retained by pruning. *)
type prepared = { query : Pred.t; pruned_idx : int list }

(** [prepare idx goal] builds the query for [kept /\ hyps => goal] over
    the indexed [hyps] and [kept]: [hyps] are subject to relevance
    pruning; [kept] hypotheses (typically path guards, whose mutual
    contradiction must stay detectable) are kept verbatim and seed the
    relevance closure. *)
let prepare (idx : index) (goal : Pred.t) : prepared =
  let ri = relevant idx goal in
  let pruned = List.map (fun i -> idx.hyps.(i)) ri @ idx.kept in
  { query = Pred.conj (Pred.not_ goal :: pruned); pruned_idx = ri }

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

(** [check_query (prepare (index ?kept hyps) goal)]. *)
let check_valid ?kept (hyps : Pred.t list) (goal : Pred.t) : result =
  check_query (prepare (index ?kept hyps) goal)

(** Satisfiability of a conjunction (used by tests). *)
let is_sat (p : Pred.t) : bool =
  match fst (Dpll.check_sat p) with Dpll.Unsat -> false | _ -> true
