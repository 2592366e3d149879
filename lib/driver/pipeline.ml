(** The DSOLVE pipeline: parse → A-normalize → ML inference → liquid
    constraint generation → fixpoint solving → report.

    This is the public entry point of the library: give it NanoML source
    and a qualifier set, get back the inferred refinement types of the
    top-level items and the list of unverifiable obligations (empty iff
    the program is proved safe). *)

open Liquid_common
open Liquid_lang
open Liquid_typing
open Liquid_infer

type error = {
  err_loc : Loc.t;
  err_reason : string;
  err_goal : string;
  err_count : int; (* identical failures folded into this one *)
  err_cex : (string * Liquid_smt.Solver.cex_value) list;
      (* falsifying values, when available *)
}

type stats = {
  source_lines : int;
  ast_nodes : int;
  n_kvars : int;
  n_wf_constraints : int;
  n_sub_constraints : int;
  n_qualifiers : int; (* qualifier patterns supplied *)
  n_measures : int; (* user-declared measures in the program *)
  n_measure_axioms : int; (* measure axioms emitted during congen *)
  n_initial_candidates : int; (* total instances over all κs *)
  n_alpha_collapsed : int;
      (* instances collapsed by orientation-level dedup at instantiation *)
  n_quals_pruned : int;
  n_reinstated : int;
  prune_time : float;
  reinstate_time : float;
      (* always 0.  Kept only because the repository benchmark
         (bench/perf/layers.ml) reads them; they leave with its next
         change. *)
  n_implication_checks : int;
  n_smt_queries : int;
  n_smt_cache_hits : int;
  n_lint_smt_queries : int; (* SMT queries spent by the lint pass *)
  n_explain_smt_queries : int; (* SMT queries spent by the explain pass *)
  n_diagnostics : int; (* lint diagnostics emitted *)
  n_partitions : int; (* solve units in the partition plan *)
  critical_path : int; (* longest dependency chain, in partitions *)
  partitions : Fixpoint.part_info list; (* by partition id *)
  n_residuals : int; (* residual casts ([--gradual] runs only) *)
  n_pcache_lookups : int; (* persistent-cache probes for this run (0/1) *)
  n_pcache_hits : int; (* runs served from the persistent cache (0/1) *)
  n_punit_hits : int; (* solve units served from the partition cache *)
  n_punit_misses : int; (* solve units solved live (cache enabled) *)
  elapsed : float; (* sum of the phase times below *)
  phases : (string * float) list;
      (* per-phase wall-clock seconds, in pipeline order:
         parse, anf, hm, congen, partition, solve, gradual (when
         enabled), explain (when enabled), lint.  [elapsed] is exactly
         their sum. *)
}

type report = {
  safe : bool;
  errors : error list;
  residuals : Liquid_gradual.Gradual.residual list;
      (* unprovable-but-unrefuted obligations deferred to runtime casts;
         empty unless [gradual].  [safe] means "no hard errors": a
         gradual report with residuals is SAFE_MODULO their count. *)
  item_types : (Ident.t * Rtype.t) list; (* with the solution applied *)
  lints : Liquid_analysis.Diagnostic.t list; (* empty unless [lint] *)
  explanations : Liquid_explain.Explain.explanation list;
      (* empty unless [explain] and the program failed *)
  explain_skipped : int; (* failures beyond [explain_limit] *)
  stats : stats;
}

exception Source_error of string * Loc.t

(** Everything that tunes a verification run; callers override fields of
    {!default} ([{ Pipeline.default with lint = true }]) instead of
    threading a growing row of optional arguments. *)
type options = {
  quals : Qualifier.t list; (* qualifier patterns *)
  mine : bool; (* mine comparison literals from the source *)
  specs : Spec.t; (* external function signatures *)
  lint : bool; (* run the semantic-lint pass *)
  incremental : bool; (* ignored *)
  jobs : int; (* ignored *)
  partition_timeout : float option; (* ignored *)
  cache_dir : string option; (* persistent result cache root; None = off *)
  explain : bool; (* explain failed obligations post-fixpoint *)
  explain_limit : int; (* failures explained per run (rest counted) *)
  gradual : bool;
      (* gradual mode: unrefuted failing obligations become residual
         casts ({!Liquid_gradual.Gradual}) instead of errors *)
}

let default =
  {
    quals = Qualifier.defaults;
    mine = true;
    specs = [];
    lint = false;
    incremental = true;
    jobs = 1;
    partition_timeout = None;
    cache_dir = None;
    explain = false;
    explain_limit = 5;
    gradual = false;
  }

(** Count source lines containing code: at least one non-whitespace
    character outside [(* ... *)] comments.  Tracks comment nesting
    across lines, so the interior and tail lines of a multi-line comment
    are not counted (the naive "line starts with [(*]" test over-counted
    those). *)
let count_lines (src : string) : int =
  let n = ref 0 and depth = ref 0 and has_code = ref false in
  let len = String.length src in
  let i = ref 0 in
  while !i < len do
    (match src.[!i] with
    | '\n' ->
        if !has_code then incr n;
        has_code := false;
        incr i
    | '(' when !i + 1 < len && src.[!i + 1] = '*' ->
        incr depth;
        i := !i + 2
    | '*' when !depth > 0 && !i + 1 < len && src.[!i + 1] = ')' ->
        decr depth;
        i := !i + 2
    | c ->
        if !depth = 0 && c <> ' ' && c <> '\t' && c <> '\r' then
          has_code := true;
        incr i)
  done;
  if !has_code then incr n;
  !n

let parse_program_decls ~name (src : string) : Ast.program * Ast.decls =
  (* Fresh-name counters restart per program, so every generated name
     (parser desugaring, ANF temporaries, α-renamed binders) is a
     function of the source alone and reports — witness bindings and
     core hypotheses in particular — are byte-identical no matter what
     the process verified before.  Safe because generated names never
     escape a run: the only pre-pipeline generator is the spec parser,
     whose binders use the distinct ["spec_arg"] base. *)
  Liquid_common.Gensym.reset ();
  Liquid_anf.Anf.reset ();
  let prog, decls =
    try Parser.parse_string ~file:name src with
    | Parser.Error (msg, loc) ->
        raise (Source_error ("parse error: " ^ msg, loc))
    | Lexer.Error (msg, pos) ->
        raise (Source_error ("lex error: " ^ msg, Loc.of_lexing pos pos))
  in
  (match Declcheck.check decls with
  | [] -> ()
  | d :: _ ->
      raise
        (Source_error
           ( Fmt.str "declaration error [%s]: %s" d.Declcheck.code
               d.Declcheck.message,
             d.Declcheck.loc )));
  (prog, decls)

(** Integer literals worth mining for qualifier instances: those the
    program {e compares against} (comparison operands).  Literals used
    only as data (array initialisers, arithmetic) rarely appear in
    invariants and would bloat every κ's candidate set.  Capped. *)
let mine_constants (prog : Ast.program) : int list =
  let interesting = ref [] in
  let note (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Const (Ast.Cint n) when abs n < 1_000_000 ->
        interesting := n :: !interesting
    | _ -> ()
  in
  let visit _ (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b)
      ->
        note a;
        note b
    | Ast.App ({ Ast.desc = Ast.Var "Array.make"; _ }, n) ->
        (* literal array sizes become length qualifiers *)
        note n
    | _ -> ()
  in
  List.iter (fun (i : Ast.item) -> Ast.fold visit () i.Ast.body) prog;
  Listx.take 16
    (Listx.dedup_ordered ~compare:Int.compare
       (List.filter (fun n -> n <> 0) !interesting))

(** Time [f], accumulating its wall-clock cost under [name] in [phases]
    (stored reversed; rendered in pipeline order at the end). *)
let timed phases name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  phases := (name, Unix.gettimeofday () -. t0) :: !phases;
  r

let verify_program ?(options = default) ?(parse_time = 0.0)
    ?(decls = Ast.no_decls) (prog : Ast.program) ~(source_lines : int) :
    report =
  let {
    quals;
    mine;
    specs;
    lint;
    cache_dir;
    explain;
    explain_limit;
    gradual;
    _;
  } =
    options
  in
  (* A warm process (daemon, repeated library calls) must never leak a
     cached answer, counterexample or per-run counter from a previous
     run. *)
  Liquid_smt.Solver.reset_run_state ();
  (* Type-variable ids restart per run too: unresolved ones reach the
     partition cache's unit signatures, so a long-lived process must
     number them as a fresh one does. *)
  Mltype.reset_vars ();
  (* Load the declaration unit's measures for this run.  [Measures.load]
     resets the table to the built-ins first, so a warm process never
     sees a previous run's measures — the qualifier pattern parser gates
     measure applications on the table, and a leaked name would make
     reports depend on what the process verified before.  The generated
     measure qualifier patterns ride along with the caller's set, so
     user measures get candidate refinements without any flag. *)
  Measures.load decls;
  let user_measures =
    List.map (fun (m : Ast.measure_decl) -> m.Ast.m_name) decls.Ast.measures
  in
  let quals =
    if user_measures = [] then quals
    else quals @ Qualifier.measure_defaults user_measures
  in
  let smt0 = Liquid_smt.Solver.stats.queries in
  let smt_hits0 = Liquid_smt.Solver.stats.cache_hits in
  let phases = ref [ ("parse", parse_time) ] in
  let source = prog in
  let prog =
    timed phases "anf" (fun () -> Liquid_anf.Anf.normalize_program prog)
  in
  let info =
    timed phases "hm" (fun () ->
        try Infer.infer_program ~decls prog
        with Infer.Type_error (msg, loc) ->
          raise (Source_error ("type error: " ^ msg, loc)))
  in
  (* Mining reads the pre-ANF source: A-normalization hoists literals
     into let-bindings, so mining the ANF form misses comparison
     operands.  It is costed under "congen" (qualifier material). *)
  let out, consts =
    timed phases "congen" (fun () ->
        (* κ and sub_id numbering restart per run: neither outlives a
           constraint system, and stable ids keep reports — blame paths
           in particular — byte-identical no matter what the process
           verified before (one-shot, warm daemon, test harness).  The
           partition cache additionally relies on this: unit signatures
           embed sub_ids, so per-run-stable numbering is what lets an
           unchanged unit's key match across runs. *)
        Rtype.reset_kvars ();
        Constr.reset_subs ();
        Liquid_common.Gensym.reset_inst ();
        let out =
          try Congen.generate ~specs info prog with
          | Congen.Congen_error (msg, loc) -> raise (Source_error (msg, loc))
          | Constr.Shape_error msg -> raise (Source_error (msg, Loc.dummy))
        in
        (out, if mine then mine_constants source else []))
  in
  let plan =
    timed phases "partition" (fun () ->
        Constr.partition_plan out.Congen.wfs out.Congen.subs)
  in
  let n_parts = Array.length plan.Constr.parts in
  (* Partition-level persistent cache: with [cache_dir] set, each solve
     unit round-trips its {!Fixpoint.partial} through the store under a
     content key (constraints, qualifier patterns and mined constants,
     upstream κ solutions — computed by {!Fixpoint.solve}), so a
     re-verify after an edit reuses every unit outside the edit's
     downstream cone.  The fingerprint carries the payload version and
     the declaration digest; everything else that could change the
     result is already in the solve's key.  The [gradual] flag is not
     in it: gradual classification reads the final solution after the
     solve, so a unit's partial is the same in both modes, and plain
     and gradual runs share unit entries.  The fingerprint joins the
     store key too, so runs that differ only in it address different
     entries instead of evicting each other's. *)
  let punit_store =
    Option.map
      (fun dir -> Liquid_cache.Store.open_store ~dir ())
      cache_dir
  in
  let reuse, persist =
    match punit_store with
    | None -> (None, None)
    | Some store ->
        let fingerprint =
          (* The declaration digest joins the fingerprint: measure
             semantics reach a unit's constraints through axioms and
             embedding-time non-negativity facts, and the latter are
             derived from the measure table rather than rendered into
             the unit signature — so an edited measure body must
             invalidate every unit of the program even when the
             signatures it feeds are unchanged.  Declaration-free
             programs keep their pre-measure fingerprints. *)
          Fixpoint.partial_version
          ^
          match Measures.fingerprint decls with
          | "" -> ""
          | d -> "|decls=" ^ d
        in
        let key k = Liquid_cache.Store.key store [ "punit"; fingerprint; k ] in
        ( Some
            (fun k ->
              Liquid_cache.Store.find ~ns:"punit" store ~key:(key k)
                ~fingerprint),
          Some
            (fun k (p : Fixpoint.partial) ->
              Liquid_cache.Store.store ~ns:"punit" store ~key:(key k)
                ~fingerprint p) )
  in
  (* Unit by unit, in process, the units sharing one elimination state
     ({!Fixpoint.solve}); each unit's concrete check runs right after its
     weakening loop, so "solve" covers both. *)
  let res =
    timed phases "solve" (fun () ->
        Fixpoint.solve ?reuse ?persist ~quals ~consts out.Congen.wfs
          out.Congen.subs plan)
  in
  (* Deduplicate identical failures (same origin span, same reason, same
     goal) before reporting and explanation, keeping a count: one bad κ
     read by many constraints must not flood the report. *)
  let failures =
    let seen : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    let key (f : Fixpoint.failure) =
      Fmt.str "%a|%s|%d" Loc.pp f.Fixpoint.f_origin.Constr.loc
        f.Fixpoint.f_origin.Constr.reason
        (Liquid_logic.Pred.tag f.Fixpoint.f_goal)
    in
    List.iter
      (fun f ->
        let k = key f in
        match Hashtbl.find_opt seen k with
        | Some n -> incr n
        | None -> Hashtbl.add seen k (ref 1))
      res.Fixpoint.failures;
    let emitted : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    List.filter_map
      (fun f ->
        let k = key f in
        if Hashtbl.mem emitted k then None
        else begin
          Hashtbl.add emitted k ();
          Some (f, !(Hashtbl.find seen k))
        end)
      res.Fixpoint.failures
  in
  (* Snapshot the query counter before the gradual/explain passes so
     their queries are counted once (in [n_explain_smt_queries]), not in
     [n_smt_queries] — gradual classification runs each obligation
     through the explain engine, so its SMT work is explain work. *)
  let explain_smt0 = Liquid_smt.Solver.stats.queries in
  (* Gradual classification: unrefuted failing obligations become
     residual casts; only refuted obligations stay hard errors, each
     keeping the explanation classification already computed for it. *)
  let residuals, hard =
    if not gradual then
      ( ([] : Liquid_gradual.Gradual.residual list),
        List.map (fun (f, n) -> (f, n, None)) failures )
    else
      timed phases "gradual" (fun () ->
          let rs, hs =
            Liquid_gradual.Gradual.classify ~wfs:out.Congen.wfs
              ~subs:out.Congen.subs ~solution:res.Fixpoint.solution ~quals
              ~consts failures
          in
          (rs, List.map (fun (f, n, ex) -> (f, n, Some ex)) hs))
  in
  let errors =
    List.map
      (fun ((f : Fixpoint.failure), count, _) ->
        {
          err_loc = f.Fixpoint.f_origin.Constr.loc;
          err_reason = f.Fixpoint.f_origin.Constr.reason;
          err_goal = Fmt.str "%a" Liquid_logic.Pred.pp f.Fixpoint.f_goal;
          err_count = count;
          err_cex = f.Fixpoint.f_cex;
        })
      hard
  in
  let explanation =
    if gradual then
      (* Classification already explained every obligation; the report's
         explanation section covers the hard (refuted) ones, residuals
         carry theirs inline. *)
      if (not explain) || hard = [] then
        { Liquid_explain.Explain.exs = []; skipped = 0 }
      else
        let exs = List.filter_map (fun (_, _, ex) -> ex) hard in
        let shown = Listx.take explain_limit exs in
        {
          Liquid_explain.Explain.exs = shown;
          skipped = List.length exs - List.length shown;
        }
    else if (not explain) || failures = [] then
      { Liquid_explain.Explain.exs = []; skipped = 0 }
    else
      timed phases "explain" (fun () ->
          Liquid_explain.Explain.explain ~limit:explain_limit
            ~wfs:out.Congen.wfs ~subs:out.Congen.subs
            ~solution:res.Fixpoint.solution ~quals ~consts failures)
  in
  let item_types =
    List.map
      (fun (x, t) -> (x, Fixpoint.apply_solution res.Fixpoint.solution t))
      out.Congen.item_types
  in
  let kvars =
    List.length
      (Listx.dedup_ordered ~compare:Int.compare
         (List.map (fun (w : Constr.wf) -> w.Constr.wf_kvar) out.Congen.wfs))
  in
  (* Snapshot the query counter before the lint pass so lint queries are
     counted once (in [n_lint_smt_queries]), not also in
     [n_smt_queries]. *)
  let lint_smt0 = Liquid_smt.Solver.stats.queries in
  let lints =
    if not lint then []
    else
      timed phases "lint" (fun () ->
          Liquid_analysis.Lint.run ~source ~branches:out.Congen.branches
            ~wfs:out.Congen.wfs ~solution:res.Fixpoint.solution ~quals ~consts)
  in
  let phases = List.rev !phases in
  {
    safe = errors = [];
    errors;
    residuals;
    item_types;
    lints;
    explanations = explanation.Liquid_explain.Explain.exs;
    explain_skipped = explanation.Liquid_explain.Explain.skipped;
    stats =
      {
        source_lines;
        ast_nodes =
          List.fold_left (fun n (i : Ast.item) -> n + Ast.size i.Ast.body) 0 prog;
        n_kvars = kvars;
        n_wf_constraints = List.length out.Congen.wfs;
        n_sub_constraints = List.length out.Congen.subs;
        n_qualifiers = List.length quals;
        n_measures = List.length user_measures;
        n_measure_axioms = out.Congen.n_measure_axioms;
        n_initial_candidates =
          res.Fixpoint.solver_stats.Fixpoint.initial_candidates;
        n_alpha_collapsed =
          res.Fixpoint.solver_stats.Fixpoint.alpha_collapsed;
        n_quals_pruned = 0;
        n_reinstated = 0;
        prune_time = 0.0;
        reinstate_time = 0.0;
        n_implication_checks =
          res.Fixpoint.solver_stats.Fixpoint.implication_checks;
        n_smt_queries = explain_smt0 - smt0;
        n_smt_cache_hits = Liquid_smt.Solver.stats.cache_hits - smt_hits0;
        n_explain_smt_queries = lint_smt0 - explain_smt0;
        n_lint_smt_queries = Liquid_smt.Solver.stats.queries - lint_smt0;
        n_diagnostics = List.length lints;
        n_partitions = n_parts;
        critical_path = plan.Constr.critical_path;
        partitions = res.Fixpoint.parts;
        n_residuals = List.length residuals;
        n_pcache_lookups = 0;
        n_pcache_hits = 0;
        n_punit_hits = res.Fixpoint.unit_hits;
        n_punit_misses = res.Fixpoint.unit_misses;
        elapsed = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 phases;
        phases;
      };
  }

(* -- Persistent result cache ------------------------------------------------- *)

(* Canonical rendering of everything in [options] that determines the
   report, beyond the source text: the qualifier set, external specs,
   and the pass switches.  The ignored fields are left out, so they
   never split a cache entry.  The leading tag versions the marshalled
   payload type. *)
let options_fingerprint (o : options) : string =
  Fmt.str
    "pipeline-report/v8|mine=%b|lint=%b|explain=%b|explain_limit=%d|gradual=%b|quals=[%a]|specs=[%a]"
    o.mine o.lint o.explain o.explain_limit o.gradual
    Fmt.(list ~sep:(any " ;; ") Qualifier.pp)
    o.quals Spec.pp o.specs

let cache_key ~(options : options) ~(name : string) (src : string)
    (store : Liquid_cache.Store.t) : string =
  Liquid_cache.Store.key store [ name; src; options_fingerprint options ]

(* Canonical digest of one verification request: the report-determining
   options (as rendered by [options_fingerprint]) ‖ the payload.  Two
   requests with equal keys are guaranteed byte-identical reports, so
   the daemon uses this both to memoize finished reports and to
   coalesce concurrent identical solves onto one worker. *)
let request_key ~(options : options) ~(name : string) (src : string) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ options_fingerprint options; name; src ]))

(** Re-intern a report that crossed a process boundary (disk cache,
    scheduler pipe, daemon socket): unmarshalled predicates are
    physically foreign to the local hash-cons tables, which breaks the
    physical-equality tricks downstream (e.g. the printer eliding [true]
    refinements).  Everything else in a report is plain data. *)
let rehash_report (r : report) : report =
  let go = Rtype.rehash () in
  let ex =
    Liquid_explain.Explain.rehash
      {
        Liquid_explain.Explain.exs = r.explanations;
        skipped = r.explain_skipped;
      }
  in
  {
    r with
    item_types = List.map (fun (x, t) -> (x, go t)) r.item_types;
    explanations = ex.Liquid_explain.Explain.exs;
    residuals = Liquid_gradual.Gradual.rehash r.residuals;
  }

(** Probe the persistent cache for a finished report ([None] when
    [options.cache_dir] is unset or the entry is absent/stale).  The
    verification daemon calls this parent-side so a warm request never
    pays a worker fork. *)
let cache_lookup ~(options : options) ~(name : string) (src : string) :
    report option =
  match options.cache_dir with
  | None -> None
  | Some dir ->
      let store = Liquid_cache.Store.open_store ~dir () in
      let fingerprint = options_fingerprint options in
      let key = cache_key ~options ~name src store in
      Option.map
        (fun (r : report) ->
          {
            (rehash_report r) with
            stats = { r.stats with n_pcache_lookups = 1; n_pcache_hits = 1 };
          })
        (Liquid_cache.Store.find store ~key ~fingerprint)

let verify_string ?(options = default) ?(name = "<string>") (src : string) :
    report =
  let verify_cold () =
    let t0 = Unix.gettimeofday () in
    let prog, decls = parse_program_decls ~name src in
    let parse_time = Unix.gettimeofday () -. t0 in
    verify_program ~options ~parse_time ~decls prog
      ~source_lines:(count_lines src)
  in
  match options.cache_dir with
  | None -> verify_cold ()
  | Some dir -> (
      match cache_lookup ~options ~name src with
      | Some r -> r
      | None ->
          let r = verify_cold () in
          let store = Liquid_cache.Store.open_store ~dir () in
          Liquid_cache.Store.store store
            ~key:(cache_key ~options ~name src store)
            ~fingerprint:(options_fingerprint options) r;
          { r with stats = { r.stats with n_pcache_lookups = 1 } })

let verify_file ?(options = default) (path : string) : report =
  let ic = open_in path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  verify_string ~options ~name:path src

(* -- Report printing ---------------------------------------------------------- *)

let pp_error ppf (e : error) =
  Fmt.pf ppf "%a: %s" Loc.pp e.err_loc e.err_reason;
  if e.err_count > 1 then Fmt.pf ppf " (×%d)" e.err_count;
  Fmt.pf ppf "@,  unprovable obligation: %s" e.err_goal;
  match e.err_cex with
  | [] -> ()
  | cex ->
      Fmt.pf ppf "@,  possible counterexample: %a"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (x, v) ->
              Fmt.pf ppf "%s = %a" x Liquid_smt.Solver.pp_cex_value v))
        (Liquid_common.Listx.take 6 cex)

let pp_report ppf (r : report) =
  let user_items =
    List.filter (fun (x, _) -> not (Ident.is_internal x)) r.item_types
  in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (x, t) ->
      Fmt.pf ppf "val %a : %a@," Ident.pp x Rtype.pp (Report.display t))
    user_items;
  let pp_residuals ppf () =
    List.iter
      (fun rc -> Fmt.pf ppf "  %a@," Liquid_gradual.Gradual.pp_residual rc)
      r.residuals
  in
  if r.safe && r.residuals = [] then Fmt.pf ppf "@,program is SAFE@,"
  else if r.safe then begin
    let n = List.length r.residuals in
    Fmt.pf ppf "@,program is SAFE_MODULO %d residual cast%s:@," n
      (if n = 1 then "" else "s");
    pp_residuals ppf ()
  end
  else begin
    Fmt.pf ppf "@,program is UNSAFE (%d obligations failed):@,"
      (List.length r.errors);
    List.iter (fun e -> Fmt.pf ppf "  %a@," pp_error e) r.errors;
    if r.residuals <> [] then begin
      let n = List.length r.residuals in
      Fmt.pf ppf "@,%d further obligation%s deferred to residual cast%s:@," n
        (if n = 1 then "" else "s")
        (if n = 1 then "" else "s");
      pp_residuals ppf ()
    end
  end;
  if r.explanations <> [] then begin
    Fmt.pf ppf "@,explanations:@,";
    List.iter
      (fun ex -> Fmt.pf ppf "  %a@," Liquid_explain.Explain.pp_explanation ex)
      r.explanations;
    if r.explain_skipped > 0 then
      Fmt.pf ppf "  %d further failure%s not explained (raise with \
                  --explain-limit)@,"
        r.explain_skipped
        (if r.explain_skipped = 1 then "" else "s")
  end;
  if r.lints <> [] then begin
    Fmt.pf ppf "@,%d diagnostic%s:@," (List.length r.lints)
      (if List.length r.lints = 1 then "" else "s");
    List.iter
      (fun d -> Fmt.pf ppf "  %a@," Liquid_analysis.Diagnostic.pp d)
      r.lints
  end;
  Fmt.pf ppf "@]"

(* -- JSON rendering ----------------------------------------------------------- *)

let json_of_cex_value : Liquid_smt.Solver.cex_value -> Liquid_analysis.Json.t
    = function
  | Liquid_smt.Solver.Vint n -> Liquid_analysis.Json.Int n
  | Liquid_smt.Solver.Vbool b -> Liquid_analysis.Json.Bool b

let json_of_error (e : error) : Liquid_analysis.Json.t =
  let open Liquid_analysis in
  Json.Obj
    [
      ("loc", Diagnostic.json_of_loc e.err_loc);
      ("reason", Json.String e.err_reason);
      ("goal", Json.String e.err_goal);
      ("count", Json.Int e.err_count);
      ( "counterexample",
        Json.Obj (List.map (fun (x, v) -> (x, json_of_cex_value v)) e.err_cex)
      );
    ]

let json_of_explanation (ex : Liquid_explain.Explain.explanation) :
    Liquid_analysis.Json.t =
  let open Liquid_analysis in
  let open Liquid_explain.Explain in
  let pred_str p = Fmt.str "%a" Liquid_logic.Pred.pp p in
  Json.Obj
    [
      ("loc", Diagnostic.json_of_loc ex.ex_origin.Liquid_infer.Constr.loc);
      ("reason", Json.String ex.ex_origin.Liquid_infer.Constr.reason);
      ("goal", Json.String (pred_str ex.ex_goal));
      ("count", Json.Int ex.ex_count);
      ("refuted", Json.Bool ex.ex_refuted);
      ( "witness",
        Json.Obj
          (List.map (fun (x, v) -> (x, json_of_cex_value v)) ex.ex_witness) );
      ( "core",
        Json.List
          (List.map
             (fun (h : core_hyp) ->
               Json.Obj
                 [
                   ("pred", Json.String (pred_str h.ch_pred));
                   ( "binder",
                     match h.ch_binder with
                     | Some x -> Json.String (Fmt.str "%a" Ident.pp x)
                     | None -> Json.Null );
                   ( "kvar",
                     match h.ch_kvar with
                     | Some k -> Json.Int k
                     | None -> Json.Null );
                 ])
             ex.ex_core) );
      ( "blame",
        Json.List
          (List.map
             (fun (s : blame_step) ->
               Json.Obj
                 [
                   ("kvar", Json.Int s.bs_kvar);
                   ( "origins",
                     Json.List
                       (List.map
                          (fun (o : Liquid_infer.Constr.origin) ->
                            Json.Obj
                              [
                                ( "loc",
                                  Diagnostic.json_of_loc
                                    o.Liquid_infer.Constr.loc );
                                ( "reason",
                                  Json.String o.Liquid_infer.Constr.reason );
                              ])
                          s.bs_origins) );
                 ])
             ex.ex_blame) );
      ( "repair",
        match ex.ex_repair with
        | None -> Json.Null
        | Some rp ->
            Json.Obj
              [
                ("kvar", Json.Int rp.rp_kvar);
                ("pred", Json.String (pred_str rp.rp_pred));
                ("loc", Diagnostic.json_of_loc rp.rp_loc);
              ] );
      ( "unexplained",
        match ex.ex_unexplained with
        | None -> Json.Null
        | Some why -> Json.String why );
    ]

let json_of_residual (rc : Liquid_gradual.Gradual.residual) :
    Liquid_analysis.Json.t =
  let open Liquid_analysis in
  let open Liquid_gradual.Gradual in
  Json.Obj
    [
      ("id", Json.String rc.rc_id);
      ("loc", Diagnostic.json_of_loc rc.rc_origin.Liquid_infer.Constr.loc);
      ("reason", Json.String rc.rc_origin.Liquid_infer.Constr.reason);
      ("goal", Json.String (Fmt.str "%a" Liquid_logic.Pred.pp rc.rc_goal));
      ("count", Json.Int rc.rc_count);
      ( "witness",
        Json.Obj
          (List.map (fun (x, v) -> (x, json_of_cex_value v)) rc.rc_witness) );
      ("explanation", json_of_explanation rc.rc_explanation);
    ]

let json_of_stats (s : stats) : Liquid_analysis.Json.t =
  let open Liquid_analysis in
  Json.Obj
    [
      ("source_lines", Json.Int s.source_lines);
      ("ast_nodes", Json.Int s.ast_nodes);
      ("kvars", Json.Int s.n_kvars);
      ("wf_constraints", Json.Int s.n_wf_constraints);
      ("sub_constraints", Json.Int s.n_sub_constraints);
      ("qualifiers", Json.Int s.n_qualifiers);
      ("measures", Json.Int s.n_measures);
      ("measure_axioms", Json.Int s.n_measure_axioms);
      ("initial_candidates", Json.Int s.n_initial_candidates);
      ("alpha_collapsed", Json.Int s.n_alpha_collapsed);
      ("implication_checks", Json.Int s.n_implication_checks);
      ("smt_queries", Json.Int s.n_smt_queries);
      ("smt_cache_hits", Json.Int s.n_smt_cache_hits);
      ("lint_smt_queries", Json.Int s.n_lint_smt_queries);
      ("explain_smt_queries", Json.Int s.n_explain_smt_queries);
      ("diagnostics", Json.Int s.n_diagnostics);
      ("partitions", Json.Int s.n_partitions);
      ("critical_path", Json.Int s.critical_path);
      ( "partition",
        Json.List
          (List.map
             (fun (p : Fixpoint.part_info) ->
               Json.Obj
                 [
                   ("id", Json.Int p.Fixpoint.pt_id);
                   ("kvars", Json.Int p.Fixpoint.pt_kvars);
                   ("subs", Json.Int p.Fixpoint.pt_subs);
                   ("time", Json.Float p.Fixpoint.pt_time);
                 ])
             s.partitions) );
      ("residuals", Json.Int s.n_residuals);
      ("pcache_lookups", Json.Int s.n_pcache_lookups);
      ("pcache_hits", Json.Int s.n_pcache_hits);
      ("punit_hits", Json.Int s.n_punit_hits);
      ("punit_misses", Json.Int s.n_punit_misses);
      ("elapsed", Json.Float s.elapsed);
      ( "phases",
        Json.Obj (List.map (fun (name, t) -> (name, Json.Float t)) s.phases) );
    ]

(** Machine-readable form of a report ([dsolve --format json]). *)
let json_of_report ?(file = "") (r : report) : Liquid_analysis.Json.t =
  let open Liquid_analysis in
  let user_items =
    List.filter (fun (x, _) -> not (Ident.is_internal x)) r.item_types
  in
  Json.Obj
    [
      ("file", Json.String file);
      ("safe", Json.Bool r.safe);
      ( "verdict",
        Json.String
          (Fmt.str "%a" Liquid_gradual.Gradual.pp_verdict
             (Liquid_gradual.Gradual.verdict_of
                ~errors:(List.length r.errors)
                ~residuals:(List.length r.residuals))) );
      ("errors", Json.List (List.map json_of_error r.errors));
      ("residuals", Json.List (List.map json_of_residual r.residuals));
      ("explanations", Json.List (List.map json_of_explanation r.explanations));
      ("explain_skipped", Json.Int r.explain_skipped);
      ( "types",
        Json.Obj
          (List.map
             (fun (x, t) ->
               ( Fmt.str "%a" Ident.pp x,
                 Json.String (Fmt.str "%a" Rtype.pp (Report.display t)) ))
             user_items) );
      ( "diagnostics",
        Json.List (List.map Diagnostic.to_json r.lints) );
      ("stats", json_of_stats r.stats);
    ]
