(** Combined theory solver for QF-EUFLIA conjunctions.

    Given a conjunction of signed atoms (produced by the DPLL layer), this
    module decides satisfiability modulo the combination of:

    - linear integer arithmetic ({!Lia} over {!Simplex}), and
    - equality with uninterpreted functions ({!Cc}),

    using a purification pass and model-based theory combination (de Moura
    and Bjørner, "Model-based theory combination", 2008):

    - every program variable becomes an {e entity} (a small integer id);
    - uninterpreted applications get entity {e proxies} linked to their CC
      node, so congruence-derived equalities transfer to arithmetic;
    - compound arithmetic terms appearing under uninterpreted symbols get
      proxy entities with defining equations;
    - CC-derived equalities between integer entities are asserted in LIA;
    - when the arithmetic model gives equal values to a candidate pair
      (arguments of same-symbol applications that congruence has not
      merged), the pair is split: first merged in CC, the model's
      choice, then, if that is [Unsat], held apart.  Every branch either
      merges two classes or separates a pair for good, so the splits
      end, and a [Sat] model respects congruence.

    The solver is a {!state}: the entities, the congruence closure, one
    tableau and the literals asserted so far.  {!assert_lits} purifies
    literals and queues their constraints, {!repair} installs them and
    repairs the tableau, and {!decide} answers for the literals asserted.
    A state can be copied and extended, so a caller that decides many
    conjunctions sharing a prefix asserts and repairs the prefix once.
    {!decide} repairs the state, adds the CC-derived equalities and
    repairs the root; the disequality splits, branch and bound and the
    congruence splits then work on copies of that repaired state.  The
    root is decided before any disequality is split.

    Every [Unsat] names the literals behind it: the congruence closure
    explains its conflicts, branch and bound its branched ones, and a
    split is explained by both branches.  A CC-derived equality enters
    the tableau under a source of its own, which stands for the literals
    of its proof in the closure.

    Any "unknown" outcome is reported as {!Unknown}: overflow and the
    branch-and-bound budget.  The validity checker treats [Unknown] as
    "possibly satisfiable", which is sound.  A state that overflowed
    while asserting or repairing answers [Unknown], and so does every
    state extended from it. *)

open Liquid_common
open Liquid_logic

(** A counterexample value: integers keep their magnitude, boolean-sorted
    entities render as booleans. *)
type value = Vint of int | Vbool of bool

(** A counterexample assignment: display label -> value, for the
    non-internal entities of the query. *)
type model = (string * value) list

(** A signed atom: [(p, false)] asserts the negation of [p]. *)
type lit = Pred.t * bool

(** [Sat (display, raw)]: the satisfying model under display labels
    ({!clean_label}) and under the entities' original labels, which a
    strict evaluator needs (display labels can collide).  [Unsat e]
    carries the explanation. *)
type 'core answer = Sat of model * model | Unsat of 'core | Unknown

type result = int list answer

(* Literals processed across all calls: prices each check by the size
   of the conjunction it decides (congruence closure and constraint
   translation are both linear-ish in it), for the deterministic cost
   metering in {!Solver}. *)
let nlits_total = ref 0

module Linexp_tbl = Hashtbl.Make (Linexp)

(* The source of a constraint or a CC assertion is the number of the
   literal it came from, in the order the state asserted them, or
   [always] for a proxy definition or link, which always holds, or
   [assumed] for a split's assumption, which its two branches discharge
   together, or a number below both for a CC-derived equality. *)
let always = -1
let assumed = -2

type state = {
  cc : Cc.t;
  mutable nents : int;
  ent_of_ident : int Ident.Tbl.t;
  mutable ent_sort : Sort.t array; (* [ent_sort.(id)] for [id < nents] *)
  app_proxy : (Cc.node, int) Hashtbl.t; (* app node -> entity id *)
  linexp_proxy : int Linexp_tbl.t; (* compound linexp -> entity id *)
  labels : (int, string) Hashtbl.t; (* entity id -> display label *)
  mutable lits : lit array; (* the asserted literals, by number *)
  mutable nlits : int;
  (* Constraints not yet in the tableau, newest first: proxy
     definitions, and each literal's constraint with its source. *)
  mutable defs : Lia.cons list;
  mutable arith : (Lia.cons * int) list;
  mutable diseqs : (Linexp.t * int) list; (* d <> 0 constraints, split in [decide] *)
  tab : Simplex.t;
  mutable overflowed : bool;
  mutable derived : (int * (Cc.node * Cc.node)) list; (* source -> equal nodes *)
}

let create () =
  {
    cc = Cc.create ();
    nents = 0;
    ent_of_ident = Ident.Tbl.create 16;
    ent_sort = Array.make 16 Sort.Int;
    app_proxy = Hashtbl.create 16;
    linexp_proxy = Linexp_tbl.create 16;
    labels = Hashtbl.create 16;
    lits = [||];
    nlits = 0;
    defs = [];
    arith = [];
    diseqs = [];
    tab = Simplex.create ();
    overflowed = false;
    derived = [];
  }

let copy st =
  {
    st with
    cc = Cc.copy st.cc;
    ent_of_ident = Ident.Tbl.copy st.ent_of_ident;
    ent_sort = Array.copy st.ent_sort;
    app_proxy = Hashtbl.copy st.app_proxy;
    linexp_proxy = Linexp_tbl.copy st.linexp_proxy;
    labels = Hashtbl.copy st.labels;
    lits = Array.copy st.lits;
    tab = Simplex.copy st.tab;
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
      Cc.assert_eq st.cc (Cc.var st.cc p) node always;
      p

(* -- Literal assertion ------------------------------------------------ *)

(** Assert one signed atom, the literal of index [i].  [polarity =
    false] asserts the negation. *)
let assert_atom st i ((p : Pred.t), (polarity : bool)) =
  let open Pred in
  match view p with
  | Bvar _ -> () (* propositional; no theory content *)
  | True | False ->
      (* A folded literal that cannot hold refutes the state. *)
      if polarity <> (view p = True) then Simplex.refute st.tab [ i ]
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
          Cc.assert_eq st.cc (node_of_term st t1) (node_of_term st t2) i;
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
          Cc.assert_ne st.cc (node_of_term st t1) (node_of_term st t2) i;
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

(* -- Asserting and repairing ------------------------------------------- *)

(** Purify [lits] into the congruence closure and queue their
    constraints, numbering them after the literals asserted so far. *)
let assert_lits st (lits : lit list) =
  List.iter
    (fun lit ->
      let i = st.nlits in
      if i = Array.length st.lits then begin
        let grown = Array.make (max 8 (2 * i)) lit in
        Array.blit st.lits 0 grown 0 i;
        st.lits <- grown
      end;
      st.lits.(i) <- lit;
      st.nlits <- i + 1;
      if not st.overflowed then
        try assert_atom st i lit with Rat.Overflow -> st.overflowed <- true)
    lits

(* Install the queued constraints, proxy definitions first, each list
   newest first, then [extra], with their sources; every entity gets a
   column first. *)
let install st extra =
  let tab = st.tab in
  Simplex.ensure tab st.nents;
  List.iter (Lia.add tab always) st.defs;
  List.iter (fun (c, i) -> Lia.add tab i c) (st.arith @ extra);
  st.defs <- [];
  st.arith <- []

(** Install the queued constraints and repair the tableau. *)
let repair st =
  if not st.overflowed then
    try
      install st [];
      ignore (Simplex.check st.tab)
    with Rat.Overflow -> st.overflowed <- true

(** The literals, by number, increasing, behind the sources [ks]: a
    derived equality stands for the literals of its proof. *)
let literals st ks =
  List.concat_map
    (fun k ->
      match List.assoc_opt k st.derived with Some (a, b) -> Cc.explain st.cc a b | None -> [ k ])
    ks
  |> List.filter (fun k -> k >= 0)
  |> List.sort_uniq Int.compare

(* The explanation of two branches of a split. *)
let union e e' = List.sort_uniq Int.compare (e @ e')

(** LIA check with integer disequalities handled by case-splitting, on
    copies of the repaired tableau [tab].  Both branches of a split name
    the disequality's literal, and a split explains its [Unsat] by both
    branches' explanations. *)
let rec lia_with_diseqs ~nvars tab diseqs : Lia.result =
  match diseqs with
  | [] -> Lia.search ~nvars tab
  | (d, i) :: rest -> (
      let branch exp =
        let tab = Simplex.copy tab in
        Lia.add tab i { Lia.exp; op = Lia.Lt; rhs = Rat.zero };
        lia_with_diseqs ~nvars tab rest
      in
      match branch d with
      | Lia.Sat m -> Lia.Sat m
      | Lia.Unsat e -> (
          match branch (Linexp.neg d) with
          | Lia.Unsat e' -> Lia.Unsat (union e e')
          | r -> r)
      | Lia.Unknown -> ( match branch (Linexp.neg d) with Lia.Sat m -> Lia.Sat m | _ -> Lia.Unknown))

(** CC-derived equalities between integer entities, as LIA constraints,
    each under a fresh source that stands for the two nodes it equates. *)
let cc_equalities st =
  (* Group entity nodes by CC representative. *)
  let by_repr : (int, ((int * Cc.node) option * (int * Cc.node) list) ref) Hashtbl.t =
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
          cell := (k, (id, n) :: es)
      | Cc.Econst k ->
          let _, es = !cell in
          cell := (Some (k, n), es)
      | _ -> ())
    (Cc.nodes_with_reprs st.cc);
  let derive a b exp rhs acc =
    let k = match st.derived with (k, _) :: _ -> k - 1 | [] -> assumed - 1 in
    st.derived <- (k, (a, b)) :: st.derived;
    ({ Lia.exp; op = Lia.Eq; rhs }, k) :: acc
  in
  Hashtbl.fold
    (fun _ cell acc ->
      let konst, ents = !cell in
      let acc =
        match (konst, ents) with
        | Some (k, c), (e, n) :: _ -> derive n c (Linexp.var e) (Rat.of_int k) acc
        | _ -> acc
      in
      match ents with
      | [] | [ _ ] -> acc
      | (e0, n0) :: rest ->
          List.fold_left
            (fun acc (e, n) ->
              derive n0 n (Linexp.sub (Linexp.var e0) (Linexp.var e)) Rat.zero acc)
            acc rest)
    by_repr []

(** Pairs of nodes whose equality would enable new congruences: for two
    applications of the same symbol that are not known equal, their
    arguments at one position that are not known equal either, each
    named by the first node of its class that arithmetic values (an
    integer entity or a constant).  Testing arbitrary pairs would be
    sound but would split on pairs no congruence cares about. *)
let candidate_pairs st =
  let nodes = Cc.nodes_with_reprs st.cc in
  let repr = Array.of_list (List.map snd nodes) in
  (* The valued node of each class, and the applications, newest first. *)
  let valued = Hashtbl.create 16 in
  let apps =
    List.fold_left
      (fun apps (n, r) ->
        match Cc.expr_of st.cc n with
        | Cc.Eapp (f, args) -> (n, f, args) :: apps
        | Cc.Evar id when not (Sort.equal (sort_of_ent st id) Sort.Int) -> apps
        | Cc.Evar _ | Cc.Econst _ ->
            if not (Hashtbl.mem valued r) then Hashtbl.add valued r n;
            apps)
      [] nodes
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
              && repr.(n1) <> repr.(n2)
            then
              List.iter2
                (fun a1 a2 ->
                  match
                    (Hashtbl.find_opt valued repr.(a1), Hashtbl.find_opt valued repr.(a2))
                  with
                  | Some u, Some v when repr.(a1) <> repr.(a2) -> pairs := (u, v) :: !pairs
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

(* Decide [st], whose literals are asserted: repair it, add the
   CC-derived equalities to it and repair it again (an overflow there
   spoils [st] for good), then split and branch on copies.  An
   explanation names literals by number. *)
let rec decide_numbered st : int list answer =
  let root =
    match Cc.conflict st.cc with
    | Some ks -> Some (`Unsat ks)
    | None -> (
        repair st;
        if st.overflowed then None
        else
          try
            install st (cc_equalities st);
            Some (Simplex.check st.tab)
          with Rat.Overflow ->
            st.overflowed <- true;
            None)
  in
  match root with
  | Some (`Unsat ks) when not st.overflowed -> Unsat (literals st ks)
  | Some `Sat -> ( try split st with Rat.Overflow -> Unknown)
  | _ -> Unknown

(* The disequality splits and branch and bound, on copies of the
   repaired root of [st]; then the split on the first candidate pair
   the model gives equal values, on copies of [st]: [u = v] merged, and
   if that is [Unsat], [u <> v] held apart. *)
and split st =
  match lia_with_diseqs ~nvars:st.nents st.tab st.diseqs with
  | Lia.Unsat ks -> Unsat (literals st ks)
  | Lia.Unknown -> Unknown
  | Lia.Sat m -> (
      let linexp n =
        match Cc.expr_of st.cc n with
        | Cc.Econst k -> Linexp.const (Rat.of_int k)
        | Cc.Evar id -> Linexp.var id
        | Cc.Eapp _ -> assert false
      in
      let value n = Linexp.eval (fun id -> m.(id)) (linexp n) in
      match List.find_opt (fun (u, v) -> Rat.equal (value u) (value v)) (candidate_pairs st) with
      | None ->
          let raw = extract_model_raw st m in
          Sat (List.sort compare (display_labels raw), raw)
      | Some (u, v) -> (
          let branch assume =
            let st = copy st in
            assume st;
            decide_numbered st
          in
          match branch (fun st -> Cc.assert_eq st.cc u v assumed) with
          | Unsat e -> (
              let apart st =
                Cc.assert_ne st.cc u v assumed;
                st.diseqs <- (Linexp.sub (linexp u) (linexp v), assumed) :: st.diseqs
              in
              match branch apart with Unsat e' -> Unsat (union e e') | r -> r)
          | r -> r))

(** Decide the literals asserted in [st], after repairing it, adding
    the CC-derived equalities to it and repairing it again; anything
    else happens on copies, so [st] can still be extended.  An
    explanation names literals, in the order [st] asserted them. *)
let decide st : lit list answer =
  match decide_numbered st with
  | Sat (display, raw) -> Sat (display, raw)
  | Unsat e -> Unsat (List.map (fun i -> st.lits.(i)) e)
  | Unknown -> Unknown

let check_sat (lits : lit list) : result =
  nlits_total := !nlits_total + List.length lits;
  let st = create () in
  assert_lits st lits;
  (* A fresh state numbers its literals by their positions. *)
  decide_numbered st
