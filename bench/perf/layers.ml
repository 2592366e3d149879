(** Per-layer numbers of a verification, read from outside the pipeline.

    One {!Liquid_driver.Pipeline.verify_string} call per request: the
    layer times are the phase times its report already carries, the
    layer counters come from the report's stats, and the SMT and
    hash-consing counters are read before and after the call.  Nothing
    is verified twice and no tracing runs inside [lib/], so a traced
    request does the same work as an untraced one.  Spans stay in memory
    and are written out at the end ({!chrome_json}); per-layer metrics
    are sums over them ({!layer_metrics}). *)

module Pipeline = Liquid_driver.Pipeline
module Solver = Liquid_smt.Solver
module Json = Liquid_analysis.Json

(* -- One request ---------------------------------------------------------- *)

(** What one verification shows of each layer. *)
type t = {
  phases : (string * float) list;
      (* layer, seconds; in pipeline order, end to end *)
  counts : (string * float) list; (* per-layer counters, by metric name *)
}

let empty = { phases = []; counts = [] }

(* The process-global counters read around a call. *)
type counters = {
  queries : int;
  sat_checks : int;
  cache_hits : int;
  unknowns : int;
  time : float;
  lits : int;
  pivots : int;
  lia_nodes : int;
  models : int;
  preds : int;
  terms : int;
}

let counters_now () =
  let s = Solver.stats in
  {
    queries = s.Solver.queries;
    sat_checks = s.Solver.sat_checks;
    cache_hits = s.Solver.cache_hits;
    unknowns = s.Solver.unknowns;
    time = s.Solver.time;
    lits = !Liquid_smt.Theory.nlits_total;
    pivots = !Liquid_smt.Simplex.npivots;
    lia_nodes = !Liquid_smt.Lia.nnodes_total;
    models = !Liquid_smt.Dpll.models_total;
    preds = Liquid_logic.Pred.interned_count ();
    terms = Liquid_logic.Term.interned_count ();
  }

(* The layer a pipeline phase belongs to.  The solve phases are the
   whole-system fixpoint, or the per-unit engine when a partition cache
   is set. *)
let layer_of_phase ~per_unit = function
  | "parse" -> "lang"
  | "hm" -> "typing"
  | "solve" | "concrete_check" | "merge" -> if per_unit then "engine" else "fixpoint"
  | p -> p

(* Adjacent phases of one layer make one span. *)
let rec join = function
  | (a, x) :: (b, y) :: rest when a = b -> join ((a, x +. y) :: rest)
  | p :: rest -> p :: join rest
  | [] -> []

let of_report ~per_unit ~wall c0 c1 (r : Pipeline.report) =
  let s = r.stats in
  let d f = float_of_int (f c1 - f c0) and n = float_of_int in
  let global =
    [
      ("smt.queries", d (fun c -> c.queries));
      ("smt.sat_checks", d (fun c -> c.sat_checks));
      ("smt.cache_hits", d (fun c -> c.cache_hits));
      ("smt.unknowns", d (fun c -> c.unknowns));
      ("smt.ms", 1000.0 *. (c1.time -. c0.time));
      ("smt.theory_lits", d (fun c -> c.lits));
      ("smt.simplex_pivots", d (fun c -> c.pivots));
      ("smt.lia_nodes", d (fun c -> c.lia_nodes));
      ("smt.dpll_models", d (fun c -> c.models));
      ("logic.preds_interned", d (fun c -> c.preds));
      ("logic.terms_interned", d (fun c -> c.terms));
    ]
  in
  if s.n_pcache_hits > 0 then
    (* A whole-run cache hit: the stats are those of the run that stored
       the report, so only the lookup is this request's. *)
    { phases = [ ("cache", wall) ]; counts = ("cache.run_hits", 1.0) :: global }
  else
    let phase p = Option.value ~default:0.0 (List.assoc_opt p s.phases) in
    let phases =
      join (List.map (fun (p, t) -> (layer_of_phase ~per_unit p, t)) s.phases)
    in
    let ms x = 1000.0 *. x in
    {
      phases =
        (* Outside the phases: the whole-run cache probe and store. *)
        (if per_unit then phases @ [ ("cache", Float.max 0.0 (wall -. s.elapsed)) ]
         else phases);
      counts =
        global
        @ [
            ("congen.subs", n s.n_sub_constraints);
            ("congen.kvars", n s.n_kvars);
            ("partition.units", n s.n_partitions);
            ("partition.critical_path", n s.critical_path);
            ("cache.unit_hits", n s.n_punit_hits);
            ("cache.unit_misses", n s.n_punit_misses);
            ("explain.explained", n (List.length r.explanations));
            ( "explain.repair_hints",
              n
                (List.length
                   (List.filter
                      (fun (e : Liquid_explain.Explain.explanation) -> e.ex_repair <> None)
                      r.explanations)) );
            ("gradual.residuals", n (List.length r.residuals));
          ]
        @ (if per_unit then
             (* The engine merges the recorded stats of the units it
                reuses into the report's, so the report's fixpoint
                numbers are not this request's work. *)
             []
           else
             (* The whole-system solve phase is weakening plus the prune
                and the reinstatement; the concrete check is its own
                phase. *)
             [
               ("fixpoint.prune_ms", ms s.prune_time);
               ("fixpoint.weaken_ms", ms (phase "solve" -. s.prune_time -. s.reinstate_time));
               ("fixpoint.reinstate_ms", ms s.reinstate_time);
               ("fixpoint.check_ms", ms (phase "concrete_check"));
               ("fixpoint.implication_checks", n s.n_implication_checks);
               ("fixpoint.candidates", n s.n_initial_candidates);
               ("fixpoint.parked", n s.n_quals_pruned);
               ("fixpoint.reinstated", n s.n_reinstated);
             ])
        @ (if List.mem_assoc "gradual" s.phases then
             [ ("gradual.hard", n (List.length r.errors)) ]
           else []);
    }

(** [Pipeline.verify_string] with its wall seconds and its layers. *)
let verify ~(options : Pipeline.options) ~name src =
  (* The per-run SMT counters restart here as they do inside the run, so
     a request served from the whole-run cache reads no solver work. *)
  Solver.reset_run_state ();
  let c0 = counters_now () in
  let t0 = Unix.gettimeofday () in
  let r = Pipeline.verify_string ~options ~name src in
  let wall = Unix.gettimeofday () -. t0 in
  let per_unit = options.cache_dir <> None || options.jobs > 1 in
  (r, wall, of_report ~per_unit ~wall c0 (counters_now ()) r)

(* -- Spans -------------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_parent : int; (* 0 for a root *)
  sp_req : int; (* the request the span serves *)
  sp_name : string;
  sp_ts : float; (* start, seconds since the epoch *)
  sp_dur : float; (* seconds *)
  sp_args : (string * float) list; (* counters, by metric name *)
}

let spans : span list ref = ref [] (* newest first *)
let next_id = ref 0
let requests = ref 0

let clear () =
  spans := [];
  next_id := 0;
  requests := 0

let add ?(parent = 0) ?(args = []) ~req ~ts ~dur name =
  incr next_id;
  spans :=
    {
      sp_id = !next_id;
      sp_parent = parent;
      sp_req = req;
      sp_name = name;
      sp_ts = ts;
      sp_dur = dur;
      sp_args = args;
    }
    :: !spans;
  !next_id

(** Record one request as a root span named [name], carrying [l]'s
    counters, with one child span per layer of [l].  The pipeline times
    its phases but not their starts, so the children are laid end to end
    from the request's start. *)
let record ?(args = []) ~ts ~dur name (l : t) =
  incr requests;
  let req = !requests in
  let root = add ~req ~ts ~dur ~args:(args @ l.counts) name in
  ignore
    (List.fold_left
       (fun t (layer, d) ->
         ignore (add ~parent:root ~req ~ts:t ~dur:d layer);
         t +. d)
       ts l.phases)

(* -- Per-layer metrics ------------------------------------------------------ *)

(** Sums over the recorded spans: each span's duration under
    [<name>.ms], and each of its counters under its own name; then the
    ratios.  Absent metrics are absent (the caller supplies zeros). *)
let layer_metrics () =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun sp ->
      add (sp.sp_name ^ ".ms") (1000.0 *. sp.sp_dur);
      List.iter (fun (k, v) -> add k v) sp.sp_args)
    !spans;
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let ratio k num den = Hashtbl.replace tbl k (if den = 0.0 then 0.0 else num /. den) in
  ratio "cache.unit_hit_ratio" (get "cache.unit_hits")
    (get "cache.unit_hits" +. get "cache.unit_misses");
  ratio "smt.cache_hit_ratio" (get "smt.cache_hits") (get "smt.queries");
  ratio "fixpoint.reinstated_per_parked" (get "fixpoint.reinstated") (get "fixpoint.parked");
  ratio "explain.hint_ratio" (get "explain.repair_hints") (get "explain.explained");
  tbl

(** Per span name: calls, total and self milliseconds (self: the span
    minus its children, which run one after another). *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      Hashtbl.replace children sp.sp_parent
        (sp.sp_dur +. Option.value ~default:0.0 (Hashtbl.find_opt children sp.sp_parent)))
    !spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let self = sp.sp_dur -. Option.value ~default:0.0 (Hashtbl.find_opt children sp.sp_id) in
      let n, total, s =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows sp.sp_name)
      in
      Hashtbl.replace rows sp.sp_name
        (n + 1, total +. (1000.0 *. sp.sp_dur), s +. (1000.0 *. self)))
    !spans;
  Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let pp_self_times ppf () =
  Fmt.pf ppf "%-16s %8s %12s %12s@." "span" "calls" "total(ms)" "self(ms)";
  List.iter
    (fun (name, n, total, self) ->
      Fmt.pf ppf "%-16s %8d %12.1f %12.1f@." name n total self)
    (self_times ())

(** Chrome trace-event JSON (the [traceEvents] array format): one
    complete event per span, timestamps in microseconds, the request as
    the thread lane, and the span id, parent and counters as [args]. *)
let chrome_json () =
  let t0 = List.fold_left (fun m sp -> Float.min m sp.sp_ts) infinity !spans in
  let num f = Printf.sprintf "%.17g" f in
  let event sp =
    Printf.sprintf
      "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\
       \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d%s}}"
      (Json.to_string (Json.String sp.sp_name))
      sp.sp_req
      (num (1e6 *. (sp.sp_ts -. t0)))
      (num (1e6 *. sp.sp_dur))
      sp.sp_id sp.sp_parent sp.sp_req
      (String.concat ""
         (List.map
            (fun (k, v) -> Printf.sprintf ",%s:%s" (Json.to_string (Json.String k)) (num v))
            sp.sp_args))
  in
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.rev_map event !spans)
  ^ "\n]}\n"
