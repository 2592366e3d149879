(** Partitioned liquid-constraint solving: execute a
    {!Constr.partition_plan}, merging per-unit {!Fixpoint.partial}s into
    one {!Fixpoint.result}.

    With [jobs > 1] units run in forked workers over the {!Scheduler}
    ({!Fixpoint.solve_unit} with the merged upstream solutions as its
    base); a marshalled partial is re-interned on arrival
    ({!Fixpoint.rehash_partial}) and folded into the running solution,
    failure list, and counters.  With [jobs <= 1] units run in-process,
    sequentially in id order — no forks, same merge, same results.

    Sharding changes speed, never the answer: a worker that times out
    or crashes on both attempts fails the whole solve ([Failure] naming
    the unit), and the scheduler kills the workers still running.

    The [reuse]/[persist] hooks connect a per-partition result cache:
    each unit is content-addressed by a key digesting its own
    constraints and wf environments ({!Constr.unit_signature}), its
    instantiated qualifier set, and the final solutions of its
    [part_deps] — everything that determines its partial.  At dispatch
    time (dependencies merged, so the key is computable) [reuse key]
    may return a cached partial, skipping the solve entirely; solved
    units are offered to [persist key partial]. *)

open Liquid_smt
open Liquid_logic
open Liquid_infer
module KMap = Constr.KMap

type part_info = {
  pi_id : int;
  pi_kvars : int; (* κs owned *)
  pi_subs : int; (* constraints solved *)
  pi_time : float; (* wall-clock, across attempts *)
}

type outcome = {
  ps_result : Fixpoint.result;
  ps_parts : part_info list; (* by part_id *)
  ps_merge_time : float; (* seconds re-interning + folding results *)
  ps_punit_hits : int; (* units served from the partition cache *)
  ps_punit_misses : int; (* units solved live (hooks present) *)
}

let solve ?(incremental = true) ?timeout
    ?(reuse : (string -> Fixpoint.partial option) option)
    ?(persist : (string -> Fixpoint.partial -> unit) option) ~(jobs : int)
    ~(quals : Qualifier.t list) ~(consts : int list) (wfs : Constr.wf list)
    (subs : Constr.sub list) (plan : Constr.plan) : outcome =
  let parts = plan.Constr.parts in
  let n = Array.length parts in
  let collapsed = ref 0 in
  let initial = Fixpoint.init_assignment ~consts ~collapsed quals wfs in
  (* WF facts for pruning, computed once parent-side: workers fork after
     this point and see the map via inherited memory.  Units prune only
     κs present in their own [init], so no per-partition restriction is
     needed. *)
  let prune_wf = Prune.wf_facts wfs in
  (* Initial assignment restricted to each partition's own κs. *)
  let init_of = Array.map
      (fun (p : Constr.partition) ->
        List.fold_left
          (fun acc k ->
            match KMap.find_opt k initial with
            | Some ps -> KMap.add k ps acc
            | None -> acc)
          KMap.empty p.Constr.part_kvars)
      parts
  in
  (* Parent-side accumulators.  Workers fork at dispatch, after all
     their dependencies merged, so they see [merged_sol] via inherited
     memory; only their own partial crosses the process boundary. *)
  let merged_sol : Constr.solution ref = ref KMap.empty in
  let merged_cands = ref KMap.empty in
  let failures = ref [] in
  let stats = ref (Fixpoint.fresh_stats ()) in
  let infos = Array.make n None in
  let merge_time = ref 0.0 in
  let caching = reuse <> None || persist <> None in
  (* Per-unit local signatures, computed up front (hooks present only).
     The full key adds the inputs that flow in from upstream. *)
  let unit_sigs =
    if caching then Array.map (Constr.unit_signature wfs) parts else [||]
  in
  let from_cache = Array.make n false in
  let hits = ref 0 and misses = ref 0 in
  let keys : string option array = Array.make n None in
  (* Content key of unit [u]; valid once [u]'s dependencies merged
     (their solutions are final in [merged_sol] from then on). *)
  let key_of u =
    match keys.(u) with
    | Some k -> k
    | None ->
        let buf = Buffer.create 1024 in
        Buffer.add_string buf unit_sigs.(u);
        Buffer.add_char buf '\x01';
        KMap.iter
          (fun k ps ->
            Buffer.add_string buf (Fmt.str "k%d:" k);
            List.iter
              (fun (p, names) ->
                Buffer.add_string buf
                  (Fmt.str "%a{%s};" Pred.pp p
                     (String.concat ","
                        (Fixpoint.SSet.elements names))))
              ps)
          init_of.(u);
        Buffer.add_char buf '\x01';
        List.iter
          (fun d ->
            List.iter
              (fun k ->
                Buffer.add_string buf
                  (Fmt.str "k%d=[%a];" k
                     Fmt.(list ~sep:(any " && ") Pred.pp)
                     (Constr.sol_find !merged_sol k)))
              parts.(d).Constr.part_kvars)
          parts.(u).Constr.part_deps;
        let k = Digest.to_hex (Digest.string (Buffer.contents buf)) in
        keys.(u) <- Some k;
        k
  in
  let reuse_for u =
    match reuse with
    | None -> None
    | Some f ->
        let r = f (key_of u) in
        if r <> None then begin
          from_cache.(u) <- true;
          incr hits
        end;
        r
  in
  let work u =
    Fixpoint.solve_unit ~incremental ~prune_wf ~base:!merged_sol
      ~init:init_of.(u) parts.(u).Constr.part_subs
  in
  (* [replay]: fold the partial's SMT-counter delta into the parent's
     global counters.  True for forked workers (their counters died with
     them) and for cached partials (the recorded solve's movement);
     false for in-process solves, whose calls moved the counters
     directly. *)
  let merge ~replay u outcome elapsed =
    let t0 = Unix.gettimeofday () in
    let p = parts.(u) in
    let n_kvars = List.length p.Constr.part_kvars in
    let n_subs = List.length p.Constr.part_subs in
    (match outcome with
    | Scheduler.Done partial ->
        (* Re-intern: a partial that crossed a process (or disk)
           boundary is physically foreign to this process's tables; for
           an in-process partial this is the identity. *)
        let partial = Fixpoint.rehash_partial partial in
        merged_cands :=
          Fixpoint.merge_solutions !merged_cands partial.Fixpoint.pr_solution;
        merged_sol :=
          KMap.fold
            (fun k ps acc -> KMap.add k (List.map fst ps) acc)
            partial.Fixpoint.pr_solution !merged_sol;
        failures := List.rev_append partial.Fixpoint.pr_failures !failures;
        stats := Fixpoint.merge_stats !stats partial.Fixpoint.pr_stats;
        if replay then begin
          let d = partial.Fixpoint.pr_smt in
          Solver.stats.Solver.queries <-
            Solver.stats.Solver.queries + d.Fixpoint.d_queries;
          Solver.stats.Solver.cache_hits <-
            Solver.stats.Solver.cache_hits + d.Fixpoint.d_cache_hits;
          Solver.stats.Solver.sat_checks <-
            Solver.stats.Solver.sat_checks + d.Fixpoint.d_sat_checks;
          Solver.stats.Solver.unknowns <-
            Solver.stats.Solver.unknowns + d.Fixpoint.d_unknowns
        end;
        if caching && not from_cache.(u) then incr misses;
        (match persist with
        | Some f when not from_cache.(u) -> f (key_of u) partial
        | _ -> ());
        infos.(u) <-
          Some
            {
              pi_id = u;
              pi_kvars = n_kvars;
              pi_subs = n_subs;
              pi_time = elapsed;
            }
    | Scheduler.Failed { detail; _ } ->
        (* The report must equal the [jobs = 1] one, and no stand-in for
           a unit's answer guarantees that, so the solve fails. *)
        failwith
          (Fmt.str "solve partition %d (%d κs, %d constraints): %s" u n_kvars
             n_subs detail));
    merge_time := !merge_time +. (Unix.gettimeofday () -. t0)
  in
  if jobs <= 1 then
    (* In-process sequential execution in id order (always legal: every
       dependency has a smaller id).  No forks, so no timeouts — exactly
       the failure model of a whole-system solve. *)
    for u = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      match reuse_for u with
      | Some partial ->
          merge ~replay:true u (Scheduler.Done partial)
            (Unix.gettimeofday () -. t0)
      | None ->
          let partial = work u in
          merge ~replay:false u (Scheduler.Done partial)
            (Unix.gettimeofday () -. t0)
    done
  else
    Scheduler.run ?timeout ~pre:reuse_for ~jobs ~n_units:n
      ~deps:(fun u -> parts.(u).Constr.part_deps)
      ~work
      ~merge:(merge ~replay:true)
      ();
  let t0 = Unix.gettimeofday () in
  (* Failures in original-constraint order, independent of scheduling. *)
  let rank = Hashtbl.create (List.length subs) in
  List.iteri (fun i (c : Constr.sub) -> Hashtbl.add rank c.Constr.sub_id i) subs;
  let failures =
    List.sort
      (fun (a, _) (b, _) ->
        compare (Hashtbl.find rank a) (Hashtbl.find rank b))
      !failures
    |> List.map snd
  in
  let dead_quals =
    Fixpoint.dead_qualifiers ~initial ~final:!merged_cands
  in
  (!stats).Fixpoint.alpha_collapsed <- !collapsed;
  merge_time := !merge_time +. (Unix.gettimeofday () -. t0);
  {
    ps_result =
      {
        Fixpoint.solution = !merged_sol;
        failures;
        solver_stats = !stats;
        dead_quals;
      };
    ps_parts =
      Array.to_list infos
      |> List.map (function
           | Some i -> i
           | None -> assert false (* every unit merges *));
    ps_merge_time = !merge_time;
    ps_punit_hits = !hits;
    ps_punit_misses = !misses;
  }
