(** Combined theory solver for QF-EUFLIA conjunctions.

    Given a conjunction of signed atoms (produced by the DPLL layer), this
    module decides satisfiability modulo the combination of:

    - linear integer arithmetic ({!Lia} over {!Simplex}), and
    - equality with uninterpreted functions ({!Cc}),

    using a purification pass and a bounded Nelson–Oppen-style equality
    exchange:

    - every program variable becomes an {e entity} (a small integer id);
    - uninterpreted applications get entity {e proxies} linked to their CC
      node, so congruence-derived equalities transfer to arithmetic;
    - compound arithmetic terms appearing under uninterpreted symbols get
      proxy entities with defining equations;
    - CC-derived equalities between integer entities are asserted in LIA;
      LIA-implied equalities between candidate entity pairs (arguments of
      same-symbol applications) are asserted back into CC, up to a fixed
      budget.

    Any "unknown" outcome is reported as {!Unknown}: overflow, the
    branch-and-bound budget, and an exhausted exchange — rounds or
    budget run out while the model leaves some unprobed candidate pair
    unseparated (equal in the model, so possibly forced equal, with a
    congruence the model may violate).  An exhausted exchange whose
    model separates every unprobed pair still answers [Sat].  The
    validity checker treats [Unknown] as "possibly satisfiable", which
    is sound. *)

open Liquid_common
open Liquid_logic

(** A counterexample value: integers keep their magnitude, boolean-sorted
    entities render as booleans. *)
type value = Vint of int | Vbool of bool

(** A counterexample assignment: display label -> value, for the
    non-internal entities of the query. *)
type model = (string * value) list

(** [Sat (display, raw)]: the satisfying model under display labels
    ({!clean_label}) and under the entities' original labels, which a
    strict evaluator needs (display labels can collide). *)
type result = Sat of model * model | Unsat of int list option | Unknown

(* Literals processed across all calls: prices each check by the size
   of the conjunction it decides (congruence closure and constraint
   translation are both linear-ish in it), for the deterministic cost
   metering in {!Solver}. *)
let nlits_total = ref 0

module Linexp_tbl = Hashtbl.Make (Linexp)

type state = {
  cc : Cc.t;
  mutable nents : int;
  ent_of_ident : int Ident.Tbl.t;
  mutable ent_sort : Sort.t array; (* [ent_sort.(id)] for [id < nents] *)
  app_proxy : (Cc.node, int) Hashtbl.t; (* app node -> entity id *)
  linexp_proxy : int Linexp_tbl.t; (* compound linexp -> entity id *)
  mutable defs : Lia.cons list;
  (* Each constraint with the index of the literal it came from. *)
  mutable arith : (Lia.cons * int) list;
  mutable diseqs : (Linexp.t * int) list; (* d <> 0 constraints, branched at the end *)
  labels : (int, string) Hashtbl.t; (* entity id -> display label *)
}

let create () =
  {
    cc = Cc.create ();
    nents = 0;
    ent_of_ident = Ident.Tbl.create 16;
    ent_sort = Array.make 16 Sort.Int;
    app_proxy = Hashtbl.create 16;
    linexp_proxy = Linexp_tbl.create 16;
    defs = [];
    arith = [];
    diseqs = [];
    labels = Hashtbl.create 16;
  }

let fresh_ent st sort =
  let id = st.nents in
  if id = Array.length st.ent_sort then begin
    let grown = Array.make (2 * id) Sort.Int in
    Array.blit st.ent_sort 0 grown 0 id;
    st.ent_sort <- grown
  end;
  st.ent_sort.(id) <- sort;
  st.nents <- id + 1;
  id

let sort_of_ent st id = st.ent_sort.(id)

let ent_of_var st x sort =
  match Ident.Tbl.find_opt st.ent_of_ident x with
  | Some id -> id
  | None ->
      let id = fresh_ent st sort in
      Ident.Tbl.add st.ent_of_ident x id;
      Hashtbl.replace st.labels id (Ident.to_string x);
      id

(* -- Purification ---------------------------------------------------- *)

(** CC node for a linear expression: plain entities and constants map
    directly; anything compound gets a defined proxy entity. *)
let rec node_of_linexp st (le : Linexp.t) : Cc.node =
  match Linexp.choose_var le with
  | None -> Cc.const st.cc (Rat.floor (Linexp.constant le))
  | Some (v, c)
    when Rat.equal c Rat.one
         && Rat.is_zero (Linexp.constant le)
         && Linexp.cardinal le = 1 ->
      Cc.var st.cc v
  | Some _ -> (
      match Linexp_tbl.find_opt st.linexp_proxy le with
      | Some p -> Cc.var st.cc p
      | None ->
          let p = fresh_ent st Sort.Int in
          Linexp_tbl.add st.linexp_proxy le p;
          (* definition: p - le = 0 *)
          st.defs <-
            { Lia.exp = Linexp.sub (Linexp.var p) le; op = Lia.Eq; rhs = Rat.zero }
            :: st.defs;
          Cc.var st.cc p)

(** Arithmetic view of a term.  Uninterpreted applications are replaced by
    proxy entities; products linearize when either operand is constant and
    fall back to the uninterpreted [mul] symbol otherwise. *)
and linexp_of_term st (t : Term.t) : Linexp.t =
  match Term.view t with
  | Term.Int n -> Linexp.const (Rat.of_int n)
  | Term.Var (x, s) -> Linexp.var (ent_of_var st x s)
  | Term.App (f, args) -> Linexp.var (proxy_of_app st t f args)
  | Term.Neg t -> Linexp.neg (linexp_of_term st t)
  | Term.Add (a, b) -> Linexp.add (linexp_of_term st a) (linexp_of_term st b)
  | Term.Sub (a, b) -> Linexp.sub (linexp_of_term st a) (linexp_of_term st b)
  | Term.Mul (a, b) ->
      let la = linexp_of_term st a and lb = linexp_of_term st b in
      if Linexp.is_const la then Linexp.scale (Linexp.constant la) lb
      else if Linexp.is_const lb then Linexp.scale (Linexp.constant lb) la
      else Linexp.var (proxy_of_app st t Symbol.mul [ a; b ])

(** CC node for an arbitrary term. *)
and node_of_term st (t : Term.t) : Cc.node =
  match Term.view t with
  | Term.Var (x, s) -> Cc.var st.cc (ent_of_var st x s)
  | Term.Int n -> Cc.const st.cc n
  | Term.App (f, args) -> app_node st f args
  | Term.Neg _ | Term.Add _ | Term.Sub _ | Term.Mul _ ->
      node_of_linexp st (linexp_of_term st t)

and app_node st f args = Cc.app st.cc f (List.map (node_of_term st) args)

(** Entity proxy standing for the application [f(args)] in arithmetic
    positions; [t] is that application, or the product it purifies.  The
    proxy's CC node is merged with the application node so that
    congruence-derived equalities reach the arithmetic solver. *)
and proxy_of_app st t f args =
  let node = app_node st f args in
  match Hashtbl.find_opt st.app_proxy node with
  | Some p -> p
  | None ->
      let p = fresh_ent st (Symbol.result_sort f) in
      Hashtbl.add st.app_proxy node p;
      let app =
        match Term.view t with Term.App _ -> t | _ -> Term.make (Term.App (f, args))
      in
      Hashtbl.replace st.labels p (Term.to_string app);
      Cc.assert_eq st.cc (Cc.var st.cc p) node;
      p

(* -- Literal assertion ------------------------------------------------ *)

(** Assert one signed atom, the literal of index [i].  [polarity =
    false] asserts the negation. *)
let assert_atom st i ((p : Pred.t), (polarity : bool)) =
  let open Pred in
  match view p with
  | Bvar _ | True | False -> () (* propositional; no theory content *)
  | Atom (t1, rel, t2) -> (
      let rel =
        if polarity then rel
        else
          match rel with
          | Eq -> Ne
          | Ne -> Eq
          | Lt -> Ge
          | Le -> Gt
          | Gt -> Le
          | Ge -> Lt
      in
      let s1 = Term.sort t1 in
      let is_obj = Sort.equal s1 Sort.Obj in
      match rel with
      | Eq ->
          Cc.assert_eq st.cc (node_of_term st t1) (node_of_term st t2);
          if not is_obj then
            st.arith <-
              ( {
                  Lia.exp = Linexp.sub (linexp_of_term st t1) (linexp_of_term st t2);
                  op = Lia.Eq;
                  rhs = Rat.zero;
                },
                i )
              :: st.arith
      | Ne ->
          Cc.assert_ne st.cc (node_of_term st t1) (node_of_term st t2);
          if not is_obj then
            st.diseqs <-
              (Linexp.sub (linexp_of_term st t1) (linexp_of_term st t2), i) :: st.diseqs
      | Lt | Le | Gt | Ge ->
          let le1 = linexp_of_term st t1 and le2 = linexp_of_term st t2 in
          let exp, op =
            match rel with
            | Lt -> (Linexp.sub le1 le2, Lia.Lt)
            | Le -> (Linexp.sub le1 le2, Lia.Le)
            | Gt -> (Linexp.sub le2 le1, Lia.Lt)
            | Ge -> (Linexp.sub le2 le1, Lia.Le)
            | _ -> assert false
          in
          st.arith <- ({ Lia.exp; op; rhs = Rat.zero }, i) :: st.arith)
  | Not _ | And _ | Or _ | Imp _ | Iff _ ->
      invalid_arg "Theory.assert_atom: non-atomic predicate"

(* -- Satisfiability check --------------------------------------------- *)

(* The source of an arithmetic constraint that no literal asserts: a
   proxy definition, which always holds, or an equality derived by
   congruence, which an explanation cannot name. *)
let always = -1
let derived = -2

(** The literals behind the constraints at positions [ks] of a list
    whose sources are [srcs], increasing; [None] if one of them is
    derived. *)
let literals srcs ks =
  let srcs = Array.of_list srcs in
  let rec go acc = function
    | [] -> Some (List.sort_uniq Int.compare acc)
    | k :: rest ->
        let s = srcs.(k) in
        if s = derived then None else go (if s = always then acc else s :: acc) rest
  in
  go [] ks

(** LIA check with integer disequalities handled by case-splitting;
    [srcs] are the sources of [cons], and an [Unsat] explanation names
    literals.  Both branches of a split name the disequality's literal,
    and a split explains its [Unsat] by both branches' explanations. *)
let rec lia_with_diseqs ~nvars cons srcs diseqs : Lia.result =
  match diseqs with
  | [] -> (
      match Lia.check ~nvars cons with
      | Lia.Unsat (Some ks) -> Lia.Unsat (literals srcs ks)
      | r -> r)
  | (d, i) :: rest -> (
      let lo = { Lia.exp = d; op = Lia.Lt; rhs = Rat.zero } in
      let hi = { Lia.exp = Linexp.neg d; op = Lia.Lt; rhs = Rat.zero } in
      let branch c = lia_with_diseqs ~nvars (c :: cons) (i :: srcs) rest in
      match branch lo with
      | Lia.Sat m -> Lia.Sat m
      | Lia.Unsat e -> (
          match (e, branch hi) with
          | Some e, Lia.Unsat (Some e') -> Lia.Unsat (Some (List.sort_uniq Int.compare (e @ e')))
          | _, Lia.Unsat _ -> Lia.Unsat None
          | _, r -> r)
      | Lia.Unknown -> ( match branch hi with Lia.Sat m -> Lia.Sat m | _ -> Lia.Unknown))

(** CC-derived equalities between integer entities, as LIA constraints. *)
let cc_equalities st =
  (* Group entity nodes by CC representative. *)
  let by_repr : (int, (int option * int list) ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (n, r) ->
      let cell =
        match Hashtbl.find_opt by_repr r with
        | Some c -> c
        | None ->
            let c = ref (None, []) in
            Hashtbl.add by_repr r c;
            c
      in
      match Cc.expr_of st.cc n with
      | Cc.Evar id when Sort.equal (sort_of_ent st id) Sort.Int ->
          let k, es = !cell in
          cell := (k, id :: es)
      | Cc.Econst k ->
          let _, es = !cell in
          cell := (Some k, es)
      | _ -> ())
    (Cc.nodes_with_reprs st.cc);
  Hashtbl.fold
    (fun _ cell acc ->
      let konst, ents = !cell in
      let acc =
        match (konst, ents) with
        | Some k, e :: _ ->
            {
              Lia.exp = Linexp.var e;
              op = Lia.Eq;
              rhs = Rat.of_int k;
            }
            :: acc
        | _ -> acc
      in
      match ents with
      | [] | [ _ ] -> acc
      | e0 :: rest ->
          List.fold_left
            (fun acc e ->
              {
                Lia.exp = Linexp.sub (Linexp.var e0) (Linexp.var e);
                op = Lia.Eq;
                rhs = Rat.zero;
              }
              :: acc)
            acc rest)
    by_repr []

(** Maximum number of LIA queries spent discovering implied equalities for
    the LIA -> CC direction of the combination. *)
let propagation_budget = 64

(** Entity pairs whose equality would enable new congruences: integer
    entities appearing at the same argument position of two applications
    of the same symbol that are not yet known equal.  Testing arbitrary
    pairs would be sound but wastes LIA queries on pairs no congruence
    cares about. *)
let candidate_pairs st =
  let apps =
    Cc.fold_apps (fun acc node f args -> (node, f, args) :: acc) st.cc []
  in
  let int_ent n =
    match Cc.expr_of st.cc n with
    | Cc.Evar id when Sort.equal (sort_of_ent st id) Sort.Int -> Some id
    | _ -> None
  in
  let pairs = ref [] in
  let rec walk = function
    | [] -> ()
    | (n1, f1, args1) :: rest ->
        List.iter
          (fun (n2, f2, args2) ->
            if
              Symbol.equal f1 f2
              && List.length args1 = List.length args2
              && not (Cc.equal st.cc n1 n2)
            then
              List.iter2
                (fun a1 a2 ->
                  match (int_ent a1, int_ent a2) with
                  | Some u, Some v
                    when not (Cc.equal st.cc (Cc.var st.cc u) (Cc.var st.cc v))
                    ->
                      pairs := (u, v) :: !pairs
                  | _ -> ())
                args1 args2)
          rest;
        walk rest
  in
  walk apps;
  Listx.dedup_ordered
    ~compare:(fun (a, b) (c, d) ->
      match Int.compare a c with 0 -> Int.compare b d | n -> n)
    !pairs

(** Display form of an entity/atom label: internal names ('%'-prefixed)
    are dropped, alpha-renaming suffixes ([#N]) are stripped, the value
    variable [VV] prints as [v], and non-measure applications (mul/div
    proxies) are rejected as counterexample noise. *)
let clean_label (label : string) : string option =
  if String.length label = 0 || label.[0] = '%' then None
  else begin
    (* strip alpha-renaming suffixes (#N) for display *)
    let buf = Buffer.create (String.length label) in
    let skip = ref false in
    String.iter
      (fun c ->
        if c = '#' then skip := true
        else if !skip && c >= '0' && c <= '9' then ()
        else begin
          skip := false;
          Buffer.add_char buf c
        end)
      label;
    let label = Buffer.contents buf in
    let label = if label = "VV" then "v" else label in
    (* keep variables and measure applications; drop other proxies
       (mul/div/mod terms are noise in a counterexample) *)
    let keep =
      match String.index_opt label '(' with
      | None -> true
      | Some i -> Symbol.is_measure_name (String.sub label 0 i)
    in
    if keep then Some label else None
  end

let pp_value ppf = function
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.bool ppf b

let extract_model_raw st (m : Rat.t array) : model =
  let out = ref [] in
  Hashtbl.iter
    (fun id label ->
      if id < Array.length m then
        match sort_of_ent st id with
        | Sort.Int -> out := (label, Vint (Rat.floor m.(id))) :: !out
        | Sort.Bool -> out := (label, Vbool (Rat.floor m.(id) <> 0)) :: !out
        | Sort.Obj -> ())
    st.labels;
  List.sort compare !out

let display_labels (m : model) : model =
  List.filter_map
    (fun (label, v) -> Option.map (fun l -> (l, v)) (clean_label label))
    m

let check_sat (lits : (Pred.t * bool) list) : result =
  nlits_total := !nlits_total + List.length lits;
  let st = create () in
  try
    List.iteri (assert_atom st) lits;
    let rec loop rounds budget =
      if not (Cc.ok st.cc) then Unsat None
      else
        let nvars = st.nents in
        let ccs = cc_equalities st in
        let cons = st.defs @ List.map fst st.arith @ ccs in
        let srcs =
          List.map (fun _ -> always) st.defs
          @ List.map snd st.arith
          @ List.map (fun _ -> derived) ccs
        in
        let sat m =
          let raw = extract_model_raw st m in
          Sat (List.sort compare (display_labels raw), raw)
        in
        (* An unprobed pair the model leaves unseparated may be forced
           equal: the model may then violate congruence, and only a
           probe could tell. *)
        let sat_unless_unseparated m unprobed =
          if List.exists (fun (u, v) -> Rat.equal m.(u) m.(v)) unprobed then
            Unknown
          else sat m
        in
        match lia_with_diseqs ~nvars cons srcs st.diseqs with
        | Lia.Unsat e -> Unsat e
        | Lia.Unknown -> Unknown
        | Lia.Sat m when rounds = 0 ->
            sat_unless_unseparated m (candidate_pairs st)
        | Lia.Sat m ->
            (* LIA -> CC: discover implied equalities among shared pairs.
               [m] is an integer model of [cons]; where it separates [u]
               and [v] it satisfies one of the two probes, so [u = v] is
               not implied and the probes are skipped. *)
            let implied u v =
              let neq d =
                { Lia.exp = d; op = Lia.Lt; rhs = Rat.zero }
              in
              let d = Linexp.sub (Linexp.var u) (Linexp.var v) in
              let refuted c = match Lia.check ~nvars (c :: cons) with Lia.Unsat _ -> true | _ -> false in
              Rat.equal m.(u) m.(v) && refuted (neq d) && refuted (neq (Linexp.neg d))
            in
            let budget = ref budget in
            let merged = ref false in
            let skipped = ref [] in
            List.iter
              (fun (u, v) ->
                if !budget > 0 then begin
                  budget := !budget - 2;
                  if implied u v then begin
                    Cc.assert_eq st.cc (Cc.var st.cc u) (Cc.var st.cc v);
                    merged := true
                  end
                end
                else skipped := (u, v) :: !skipped)
              (candidate_pairs st);
            if !merged then loop (rounds - 1) !budget
            else sat_unless_unseparated m !skipped
    in
    loop 3 propagation_budget
  with Rat.Overflow -> Unknown
