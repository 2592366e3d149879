(** Liquid constraints: environments, well-formedness and subtyping
    constraints, constraint splitting, and environment embedding.

    Constraint generation (see {!Congen}) produces constraints between
    whole refinement types; [split] reduces them to {e simple} constraints
    whose right-hand side is either a single κ (to be weakened by the
    fixpoint) or a concrete predicate (to be checked once the fixpoint
    stabilizes), mirroring the paper's decomposition of [Γ ⊢ T₁ <: T₂].
    [embed_env] translates an environment into the antecedent predicates
    of an implication check, given the current solution for the [κ]
    variables. *)

open Liquid_common
open Liquid_logic

(* -- Environments -------------------------------------------------------- *)

(* The bindings and the guards of an environment are each a chain,
   newest first, sharing its tail with the environment it extends.  A
   link's digest is the MD5 of its parent's digest and its own
   rendering, taken when a content key ({!unit_signature}) first asks
   for it and kept on the link: each binding and guard is rendered at
   most once per run however many environments share it, and a run
   without a cache renders none. *)
type 'a chain =
  | Root
  | Link of {
      item : 'a;
      up : 'a chain;
      mutable digest : Digest.t; (* "" until a key asks for it *)
    }

type env = { binds : (Ident.t * Rtype.t) chain; guards : Pred.t chain }

let empty_env = { binds = Root; guards = Root }
let link item up = Link { item; up; digest = "" }
let bind_var x rt env = { env with binds = link (x, rt) env.binds }
let guard p env = { env with guards = link p env.guards }

let[@tail_mod_cons] rec list_of_chain = function
  | Root -> []
  | Link l -> l.item :: list_of_chain l.up

let bindings env = list_of_chain env.binds
let guards env = list_of_chain env.guards

(** Scope of an environment: variables usable in qualifier instances and
    their logical sorts.  Function-typed variables are excluded (no
    uninterpreted symbol applies to them) as are unit variables. *)
let scope_of_env env : (Ident.t * Sort.t) list =
  let[@tail_mod_cons] rec scope = function
    | Root -> []
    | Link { item = x, rt; up; _ } -> (
        match rt with
        | Rtype.Fun _ -> scope up
        | Rtype.Base (Rtype.Bunit, _) -> scope up
        | rt -> (x, Rtype.sort_of rt) :: scope up)
  in
  scope env.binds

(* -- Constraints -------------------------------------------------------------- *)

type origin = { loc : Loc.t; reason : string }

(** Right-hand side of a simple constraint. *)
type rhs =
  | Rkvar of Rtype.kvar * Pred.subst (* weaken this κ *)
  | Rconc of Pred.t (* concrete obligation, checked after the fixpoint *)

type sub = {
  sub_id : int;
  sub_env : env;
  lhs : Rtype.refinement;
  rhs : rhs;
  vv_sort : Sort.t;
  origin : origin;
}

type wf = { wf_env : env; wf_kvar : Rtype.kvar; wf_sort : Sort.t }

exception Shape_error of string

let sub_counter = ref 0
let reset_subs () = sub_counter := 0

let mk_sub env lhs rhs vv_sort origin =
  incr sub_counter;
  { sub_id = !sub_counter; sub_env = env; lhs; rhs; vv_sort; origin }

(** One simple constraint per κ on the right, plus one concrete check if
    the right-hand side has a non-trivial concrete part. *)
let subs_of_refinements env origin (r1 : Rtype.refinement)
    (r2 : Rtype.refinement) vv_sort acc =
  let acc =
    if Pred.equal r2.Rtype.preds Pred.tt then acc
    else mk_sub env r1 (Rconc r2.Rtype.preds) vv_sort origin :: acc
  in
  List.fold_left
    (fun acc (k, theta) -> mk_sub env r1 (Rkvar (k, theta)) vv_sort origin :: acc)
    acc r2.Rtype.kvars

(* -- Splitting ------------------------------------------------------------------ *)

let base_sort = function
  | Rtype.Bint -> Sort.Int
  | Rtype.Bbool -> Sort.Bool
  | Rtype.Bunit -> Sort.Obj

(** Value usable to substitute variable [x] (of type [t]) for a formal. *)
let var_value (t : Rtype.t) (x : Ident.t) : Pred.value =
  match Rtype.sort_of t with
  | Sort.Bool -> Pred.Pr (Pred.bvar x)
  | s -> Pred.Tm (Term.var x s)

(** Split [env ⊢ t1 <: t2] into simple refinement constraints. *)
let rec split env origin (t1 : Rtype.t) (t2 : Rtype.t) (acc : sub list) :
    sub list =
  match (t1, t2) with
  | Rtype.Base (Rtype.Bunit, _), Rtype.Base (Rtype.Bunit, _) -> acc
  | Rtype.Base (b1, r1), Rtype.Base (b2, r2) when b1 = b2 ->
      subs_of_refinements env origin r1 r2 (base_sort b1) acc
  | Rtype.Fun (x1, a1, r1), Rtype.Fun (x2, a2, r2) ->
      (* contravariant arguments, covariant results with renamed binder *)
      let acc = split env origin a2 a1 acc in
      let r1' = Rtype.subst1 x1 (var_value a2 x2) r1 in
      let env' = bind_var x2 a2 env in
      split env' origin r1' r2 acc
  | Rtype.Tuple ts1, Rtype.Tuple ts2 when List.length ts1 = List.length ts2 ->
      List.fold_left2 (fun acc t1 t2 -> split env origin t1 t2 acc) acc ts1 ts2
  | Rtype.List (e1, r1), Rtype.List (e2, r2) ->
      (* immutable container: covariant elements *)
      let acc = split env origin e1 e2 acc in
      subs_of_refinements env origin r1 r2 Sort.Obj acc
  | Rtype.Array (e1, r1), Rtype.Array (e2, r2) ->
      (* mutable container: invariant element type *)
      let acc = split env origin e1 e2 acc in
      let acc = split env origin e2 e1 acc in
      subs_of_refinements env origin r1 r2 Sort.Obj acc
  | Rtype.Data (d1, r1), Rtype.Data (d2, r2) when String.equal d1 d2 ->
      subs_of_refinements env origin r1 r2 Sort.Obj acc
  | Rtype.Tyvar (i, r1), Rtype.Tyvar (j, r2) when i = j ->
      subs_of_refinements env origin r1 r2 Sort.Obj acc
  | _ ->
      raise
        (Shape_error
           (Fmt.str "subtyping between incompatible shapes %a and %a" Rtype.pp
              t1 Rtype.pp t2))

(** Well-formedness constraints for every κ of a template, with binders
    entering scope as in the paper's [Γ ⊢ T] rules. *)
let rec split_wf env (t : Rtype.t) (acc : wf list) : wf list =
  match t with
  | Rtype.Base (b, r) -> wf_of_refinement env r (base_sort b) acc
  | Rtype.Fun (x, a, r) ->
      let acc = split_wf env a acc in
      split_wf (bind_var x a env) r acc
  | Rtype.Tuple ts -> List.fold_left (fun acc t -> split_wf env t acc) acc ts
  | Rtype.List (e, r) ->
      let acc = split_wf env e acc in
      wf_of_refinement env r Sort.Obj acc
  | Rtype.Array (e, r) ->
      let acc = split_wf env e acc in
      wf_of_refinement env r Sort.Obj acc
  | Rtype.Data (_, r) -> wf_of_refinement env r Sort.Obj acc
  | Rtype.Tyvar (_, r) -> wf_of_refinement env r Sort.Obj acc

and wf_of_refinement env (r : Rtype.refinement) sort acc =
  List.fold_left
    (fun acc (k, _) -> { wf_env = env; wf_kvar = k; wf_sort = sort } :: acc)
    acc r.Rtype.kvars

(* -- Embedding -------------------------------------------------------------------- *)

module KMap = Stdlib.Map.Make (Int)

type solution = Pred.t list KMap.t

let sol_find (sol : solution) k =
  match KMap.find_opt k sol with Some ps -> ps | None -> []

(** A compiled antecedent slot: either a κ-independent fact, or a κ
    occurrence that instantiates the κ's {e current} solution preds on
    demand.  Compiling a binding's type into slots is the one structural
    traversal of the embedding; expanding the slots under a solution
    ({!expand}) yields its facts. *)
type slot =
  | Sstatic of Pred.t
  | Ssite of Rtype.kvar * (Pred.t -> Pred.t) (* instantiation *)

(** How a κ occurrence [ν := value] ∘ θ is applied to a solution pred. *)
type inst = Pred.value -> Pred.subst -> Pred.t -> Pred.t

let direct_inst : inst =
 fun value theta q -> Pred.subst1 Ident.vv value (Pred.subst theta q)

(* Re-expansion after weakening only pays for solution preds never seen
   at this occurrence before (weakening removes preds, so in the steady
   state every instantiation is a table hit). *)
let memoized_inst : inst =
 fun value theta ->
  let memo : Pred.t Pred.Tbl.t = Pred.Tbl.create 16 in
  fun q ->
    match Pred.Tbl.find_opt memo q with
    | Some p -> p
    | None ->
        let p = direct_inst value theta q in
        Pred.Tbl.add memo q p;
        p

(** Slots denoted by a refinement, with [ν] replaced by [value]. *)
let compile_refinement ?(inst = direct_inst) (value : Pred.value)
    (r : Rtype.refinement) : slot list =
  Sstatic (Pred.subst1 Ident.vv value r.Rtype.preds)
  :: List.map (fun (k, theta) -> Ssite (k, inst value theta)) r.Rtype.kvars

(** The axioms [m(value) >= 0] for every provably non-negative measure
    over [tycon], registration order — contributed for every binding of
    that datatype (arrays: [len], lists: [llen], user ADTs: their
    declared measures). *)
let nonneg_measures (tycon : string) (value : Pred.value) : slot list =
  match value with
  | Pred.Pr _ -> []
  | Pred.Tm tm ->
      List.filter_map
        (fun m -> Option.map (fun p -> Sstatic p) (Measure.nonneg_fact m tm))
        (Measure.measures_on tycon)

(** Slots contributed by one environment binding.  [value] names the
    bound value in the logic (a variable, or a projection chain for tuple
    components). *)
let rec compile_binding ?inst (value : Pred.value) (rt : Rtype.t) : slot list =
  match rt with
  | Rtype.Base (Rtype.Bunit, _) -> []
  | Rtype.Base (_, r) -> compile_refinement ?inst value r
  | Rtype.Array (_, r) ->
      (* array lengths are non-negative by construction *)
      nonneg_measures "array" value @ compile_refinement ?inst value r
  | Rtype.List (_, r) ->
      nonneg_measures "list" value @ compile_refinement ?inst value r
  | Rtype.Data (d, r) ->
      nonneg_measures d value @ compile_refinement ?inst value r
  | Rtype.Tyvar (_, r) -> compile_refinement ?inst value r
  | Rtype.Tuple ts -> (
      match value with
      | Pred.Tm base ->
          List.concat
            (List.mapi
               (fun i ti ->
                 let s = Rtype.sort_of ti in
                 if Sort.equal s Sort.Bool then []
                 else
                   let proj = Term.app (Rtype.proj_symbol i s) [ base ] in
                   compile_binding ?inst (Pred.Tm proj) ti)
               ts)
      | Pred.Pr _ -> [])
  | Rtype.Fun _ -> []

(** The binding slots of an environment, each with its binder. *)
let compile_env ?inst (env : env) : (Ident.t * slot) list =
  let rec slots = function
    | Root -> []
    | Link { item = x, rt; up; _ } ->
        List.map (fun s -> (x, s)) (compile_binding ?inst (var_value rt x) rt)
        @ slots up
  in
  slots env.binds

let expand_slot lookup = function
  | Sstatic p -> [ (p, None) ]
  | Ssite (k, inst) -> List.map (fun q -> (inst q, Some k)) (lookup k)

(** The facts of [slots] under [lookup], in order, each with the κ whose
    solution instance it is ([None] for a static fact). *)
let expand (lookup : Rtype.kvar -> Pred.t list) (slots : slot list) :
    (Pred.t * Rtype.kvar option) list =
  List.concat_map (expand_slot lookup) slots

(** Predicates denoted by a refinement, with [ν] replaced by [value]. *)
let preds_of_refinement (lookup : Rtype.kvar -> Pred.t list)
    (value : Pred.value) (r : Rtype.refinement) : Pred.t list =
  List.map fst (expand lookup (compile_refinement value r))

(** Where an antecedent fact came from: the environment binder that
    contributed it (or [None] for a guard/lhs fact) and the κ whose
    solution instance it is (or [None] for a static refinement part or a
    measure axiom).  The explanation engine uses this to translate a
    minimized hypothesis core back to program bindings and blamed κs. *)
type fact_origin = { fo_binder : Ident.t option; fo_kvar : Rtype.kvar option }

(** All antecedent facts of an environment under the given solution, with
    their provenance and [tt] dropped, separated from the guards (guards
    are exempt from relevance pruning in the solver). *)
let embed_env_trace (lookup : Rtype.kvar -> Pred.t list) (env : env) :
    (Pred.t * fact_origin) list * Pred.t list =
  let facts =
    List.concat_map
      (fun (x, s) ->
        List.filter_map
          (fun (p, k) ->
            if Pred.is_true p then None
            else Some (p, { fo_binder = Some x; fo_kvar = k }))
          (expand_slot lookup s))
      (compile_env env)
  in
  (facts, guards env)

(** {!embed_env_trace} without provenance. *)
let embed_env (lookup : Rtype.kvar -> Pred.t list) (env : env) :
    Pred.t list * Pred.t list =
  let facts, guards = embed_env_trace lookup env in
  (List.map fst facts, guards)

(* -- Dependency structure ----------------------------------------------------------- *)

(** κs read by a constraint: those in its environment and left-hand side.
    Weakening the constraint's right-hand κ must be reconsidered whenever
    any of these weakens. *)
let reads (c : sub) : int list =
  let rec env_ks = function
    | Root -> []
    | Link { item = _, rt; up; _ } -> Rtype.kvars rt @ env_ks up
  in
  Listx.dedup_ordered ~compare:Int.compare
    (List.map fst c.lhs.Rtype.kvars @ env_ks c.sub_env.binds)

(** The κ a constraint weakens, if any ([None]: a concrete obligation). *)
let writes (c : sub) : int option =
  match c.rhs with Rkvar (k, _) -> Some k | Rconc _ -> None

(* -- Partitioning ------------------------------------------------------------------- *)

(* The κ→κ dependency graph has an edge k → k' for every simple
   constraint that reads k and writes k': weakening k can oblige k' to
   weaken.  Real programs decompose into many independent components of
   this graph (one per top-level function, roughly, with call edges
   between them), so the fixpoint can be solved per strongly-connected
   component, in topological order, each component seeing only the final
   solutions of the components it reads.  The condensation below is the
   solve-unit plan executed by the engine scheduler. *)

module ISet = Set.Make (Int)

type partition = {
  part_id : int; (* topological index: every dependency has a smaller id *)
  part_kvars : int list; (* κs owned (weakened) by this unit, sorted *)
  part_subs : sub list; (* constraints solved here, in original order *)
  part_deps : int list; (* part_ids whose final solutions this unit reads *)
}

type plan = {
  parts : partition array; (* topologically ordered *)
  plan_kvars : int; (* κs in the dependency graph *)
  critical_path : int; (* longest dependency chain, in partitions *)
}

(** Tarjan's strongly-connected components over an adjacency map.
    Components are emitted in reverse topological order (a component is
    finished only after everything it reaches), so reversing the result
    lists dependencies first. *)
let scc_condense (nodes : int list) (succs : int -> int list) : int list list
    =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next = ref 0 in
  let comps = ref [] in
  let rec visit v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        match Hashtbl.find_opt index w with
        | None ->
            visit w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        | Some wi ->
            if Hashtbl.mem on_stack w then
              Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) wi))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* v is the root of a component: pop the stack down to it *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then visit v) nodes;
  (* [comps] accumulated reversed-of-emission = topological order *)
  !comps

(** Build the solve-unit plan for a constraint system: κ→κ edges from
    the simple constraints, SCC condensation in topological order,
    κ-weakening constraints attached to the unit owning their κ, and
    concrete obligations attached to the {e latest} unit among the κs
    they read (with explicit dependency edges on the others, so every κ
    a concrete check reads is final when the check runs). *)
let partition_plan (wfs : wf list) (subs : sub list) : plan =
  (* Each constraint with the κs it reads, computed once: [reads] walks
     the constraint's whole environment. *)
  let subs = List.map (fun c -> (c, reads c)) subs in
  (* κ universe: wf κs plus everything read or written. *)
  let kvars =
    Listx.dedup_ordered ~compare:Int.compare
      (List.map (fun w -> w.wf_kvar) wfs
      @ List.concat_map
          (fun (c, rs) -> match writes c with Some k -> k :: rs | None -> rs)
          subs)
  in
  (* Adjacency: k -> κs written by constraints reading k. *)
  let succs_tbl : (int, ISet.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (c, rs) ->
      match writes c with
      | None -> ()
      | Some kw ->
          List.iter
            (fun kr ->
              if kr <> kw then
                let prev =
                  Option.value ~default:ISet.empty
                    (Hashtbl.find_opt succs_tbl kr)
                in
                Hashtbl.replace succs_tbl kr (ISet.add kw prev))
            rs)
    subs;
  let succs k =
    match Hashtbl.find_opt succs_tbl k with
    | Some s -> ISet.elements s
    | None -> []
  in
  let comps = scc_condense kvars succs in
  (* Degenerate system with no κs: one catch-all unit for the checks. *)
  let comps = if comps = [] then [ [] ] else comps in
  let n = List.length comps in
  let comp_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i ks -> List.iter (fun k -> Hashtbl.replace comp_of k i) ks)
    comps;
  let part_of_kvar k =
    match Hashtbl.find_opt comp_of k with Some i -> i | None -> 0
  in
  (* Assign constraints: subs buckets keep original order; deps collect
     every foreign unit a constraint reads. *)
  let bucket_subs = Array.make n [] in
  let deps = Array.make n ISet.empty in
  List.iter
    (fun (c, rs) ->
      let home =
        match writes c with
        | Some kw -> part_of_kvar kw
        | None ->
            (* latest unit among the κs read; unit 0 for κ-free checks *)
            List.fold_left (fun acc k -> max acc (part_of_kvar k)) 0 rs
      in
      bucket_subs.(home) <- c :: bucket_subs.(home);
      List.iter
        (fun kr ->
          let p = part_of_kvar kr in
          if p <> home then deps.(home) <- ISet.add p deps.(home))
        rs)
    subs;
  let parts =
    Array.of_list
      (List.mapi
         (fun i ks ->
           {
             part_id = i;
             part_kvars = List.sort Int.compare ks;
             part_subs = List.rev bucket_subs.(i);
             part_deps = ISet.elements deps.(i);
           })
         comps)
  in
  (* Longest dependency chain (in units), by DP over the topo order. *)
  let depth = Array.make n 0 in
  Array.iter
    (fun p ->
      depth.(p.part_id) <-
        1 + List.fold_left (fun acc d -> max acc depth.(d)) 0 p.part_deps)
    parts;
  {
    parts;
    plan_kvars = List.length kvars;
    critical_path = Array.fold_left max 0 depth;
  }

(* -- Printing ---------------------------------------------------------------------- *)

let pp_origin ppf { loc; reason } = Fmt.pf ppf "%s at %a" reason Loc.pp loc

let pp_rhs ppf = function
  | Rkvar (k, theta) ->
      if Ident.Map.is_empty theta then Fmt.pf ppf "k%d" k
      else Fmt.pf ppf "k%d%a" k Rtype.pp_subst theta
  | Rconc p -> Pred.pp ppf p

(* -- Content signatures ------------------------------------------------------ *)

(* One formatter for every rendering a digest is taken of: a margin no
   line reaches, so no rendering depends on where the printer breaks. *)
let sig_buf = Buffer.create 256

let sig_ppf =
  let ppf = Format.formatter_of_buffer sig_buf in
  Format.pp_set_margin ppf 1_000_000;
  ppf

let render pp x =
  Buffer.clear sig_buf;
  pp sig_ppf x;
  Format.pp_print_flush sig_ppf ();
  Buffer.contents sig_buf

let root_digest = Digest.string ""

let rec chain_digest pp = function
  | Root -> root_digest
  | Link l ->
      if l.digest = "" then begin
        let up = chain_digest pp l.up in
        l.digest <- Digest.string (up ^ render pp l.item)
      end;
      l.digest

let pp_bind ppf (x, t) = Fmt.pf ppf "%a:%a;" Ident.pp x Rtype.pp t
let pp_guard ppf g = Fmt.pf ppf "%a;" Pred.pp g

(* An environment in a signature: the digests of its binding chain
   (every bind, name and full refinement type, κs included) and of its
   guard chain.  Two environments digest equal iff the solver sees the
   same antecedent. *)
let pp_env_sig ppf (e : env) =
  Fmt.pf ppf "%s|%s"
    (Digest.to_hex (chain_digest pp_bind e.binds))
    (Digest.to_hex (chain_digest pp_guard e.guards))

let unit_wfs (wfs : wf list) : partition -> wf list =
  let by_kvar : (int, (int * wf) list) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (w : wf) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_kvar w.wf_kvar)
      in
      Hashtbl.replace by_kvar w.wf_kvar ((i, w) :: prev))
    wfs;
  fun p ->
    List.concat_map
      (fun k -> Option.value ~default:[] (Hashtbl.find_opt by_kvar k))
      p.part_kvars
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    |> List.map snd

let unit_signature (wfs : wf list) (p : partition) : string =
  (* [part_id] is deliberately absent: it is a position in the
     topological order, and an edit elsewhere in the program can
     renumber an untouched unit.  Content alone identifies a partition —
     κ ids and sub_ids are globally unique, so distinct partitions can
     never render equal. *)
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000_000;
  List.iter
    (fun (c : sub) ->
      Fmt.pf ppf "sub[%d]%a⊢%a<:%a^%a@%a\n" c.sub_id pp_env_sig c.sub_env
        Rtype.pp_refinement c.lhs pp_rhs c.rhs Sort.pp c.vv_sort pp_origin
        c.origin)
    p.part_subs;
  List.iter
    (fun (w : wf) ->
      Fmt.pf ppf "wf k%d %a : %a\n" w.wf_kvar pp_env_sig w.wf_env Sort.pp
        w.wf_sort)
    wfs;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))
