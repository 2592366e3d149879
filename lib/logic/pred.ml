(** Predicates (quantifier-free formulas) of the refinement logic.

    A refinement predicate is a boolean combination of:
    - arithmetic/equality atoms between {!Term}s,
    - boolean program variables ([Bvar]),
    - the constants [True]/[False].

    Boolean-sorted program values never appear inside terms; equality of
    boolean expressions is expressed with [Iff].  This keeps the term
    language two-sorted (Int/Obj) and the SMT theory layer simple.

    Like {!Term}s, predicates are {e hash-consed}: structural equality is
    physical equality, [compare] is a constant-time id comparison, and
    each node memoizes its hash and free-variable set.  The SMT result
    cache and the propositional atom table key on the interning id, and
    hypothesis relevance pruning reuses the memoized free variables. *)

open Liquid_common

type brel = Eq | Ne | Lt | Le | Gt | Ge

type t = {
  node : node;
  tag : int; (* unique interning id; allocation order *)
  hkey : int; (* structural hash, memoized *)
  mutable fvs : (Ident.t * Sort.t) list option; (* free vars, memoized *)
}

and node =
  | True
  | False
  | Atom of Term.t * brel * Term.t
  | Bvar of Ident.t (* boolean program variable, as a proposition *)
  | Not of t
  | And of t list
  | Or of t list
  | Imp of t * t
  | Iff of t * t

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

module Node = struct
  type nonrec t = node

  let equal n1 n2 =
    match (n1, n2) with
    | True, True | False, False -> true
    | Atom (t1, r, t2), Atom (u1, s, u2) ->
        Term.equal t1 u1 && r = s && Term.equal t2 u2
    | Bvar x, Bvar y -> Ident.equal x y
    | Not p, Not q -> p == q
    | And ps, And qs | Or ps, Or qs ->
        List.length ps = List.length qs
        && List.for_all2 (fun a b -> a == b) ps qs
    | Imp (p1, p2), Imp (q1, q2) | Iff (p1, p2), Iff (q1, q2) ->
        p1 == q1 && p2 == q2
    | _ -> false

  let mix h k = ((h * 31) + k) land max_int

  let hash = function
    | True -> 3
    | False -> 5
    | Atom (a, r, b) -> mix 7 (mix (Term.hash a) (mix (Hashtbl.hash r) (Term.hash b)))
    | Bvar x -> mix 11 (Ident.hash x)
    | Not p -> mix 13 p.hkey
    | And ps -> List.fold_left (fun h p -> mix h p.hkey) 17 ps
    | Or ps -> List.fold_left (fun h p -> mix h p.hkey) 19 ps
    | Imp (p, q) -> mix 23 (mix p.hkey q.hkey)
    | Iff (p, q) -> mix 29 (mix p.hkey q.hkey)
end

module H = Hashtbl.Make (Node)

let table : t H.t = H.create 4096

let counter = ref 0

(** Intern a node verbatim (no simplification). *)
let make (node : node) : t =
  match H.find_opt table node with
  | Some p -> p
  | None ->
      incr counter;
      let p = { node; tag = !counter; hkey = Node.hash node; fvs = None } in
      H.add table node p;
      p

let view p = p.node
let tag p = p.tag
let hash p = p.hkey

(** Number of distinct live predicate nodes (observability). *)
let interned_count () = !counter

let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Stdlib.Int.compare a.tag b.tag

(** Re-interning for predicates built in another heap (unmarshalled from
    a worker process); see {!Term.rehasher} for the contract.  Nodes are
    rebuilt verbatim through {!make} — not the smart constructors — so
    the local predicate is byte-identical in structure to the foreign
    one. *)
let rehasher () : t -> t =
  let tgo = Term.rehasher () in
  let memo : (int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go p =
    match Hashtbl.find_opt memo p.tag with
    | Some q -> q
    | None ->
        let node =
          match p.node with
          | True -> True
          | False -> False
          | Atom (a, r, b) -> Atom (tgo a, r, tgo b)
          | Bvar x -> Bvar x
          | Not q -> Not (go q)
          | And qs -> And (List.map go qs)
          | Or qs -> Or (List.map go qs)
          | Imp (a, b) -> Imp (go a, go b)
          | Iff (a, b) -> Iff (go a, go b)
        in
        let q = make node in
        Hashtbl.add memo p.tag q;
        q
  in
  go

(** Hash table keyed on interned predicates: constant-time hashing and
    physical-equality buckets.  This is what the SMT result cache and the
    propositional atom table use. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let tt = make True
let ff = make False

let atom t1 r t2 =
  match (Term.view t1, r, Term.view t2) with
  | Term.Int m, Eq, Term.Int n -> if m = n then tt else ff
  | Term.Int m, Ne, Term.Int n -> if m <> n then tt else ff
  | Term.Int m, Lt, Term.Int n -> if m < n then tt else ff
  | Term.Int m, Le, Term.Int n -> if m <= n then tt else ff
  | Term.Int m, Gt, Term.Int n -> if m > n then tt else ff
  | Term.Int m, Ge, Term.Int n -> if m >= n then tt else ff
  | _ ->
      if Term.equal t1 t2 then (
        match r with Eq | Le | Ge -> tt | Ne | Lt | Gt -> ff)
      else make (Atom (t1, r, t2))

let eq a b = atom a Eq b
let ne a b = atom a Ne b
let lt a b = atom a Lt b
let le a b = atom a Le b
let gt a b = atom a Gt b
let ge a b = atom a Ge b

let bvar x = make (Bvar x)

let not_ p =
  match p.node with
  | True -> ff
  | False -> tt
  | Not q -> q
  | Atom (a, Eq, b) -> make (Atom (a, Ne, b))
  | Atom (a, Ne, b) -> make (Atom (a, Eq, b))
  | Atom (a, Lt, b) -> make (Atom (a, Ge, b))
  | Atom (a, Le, b) -> make (Atom (a, Gt, b))
  | Atom (a, Gt, b) -> make (Atom (a, Le, b))
  | Atom (a, Ge, b) -> make (Atom (a, Lt, b))
  | _ -> make (Not p)

let is_true p = p == tt
let is_false p = p == ff

(* First occurrences, in order, by physical equality. *)
let dedup ps =
  let seen = Tbl.create 16 in
  List.filter
    (fun p ->
      if Tbl.mem seen p then false
      else begin
        Tbl.add seen p ();
        true
      end)
    ps

let conj ps =
  let ps =
    List.concat_map
      (fun p -> match p.node with True -> [] | And qs -> qs | _ -> [ p ])
      ps
  in
  if List.exists is_false ps then ff
  else
    match dedup ps with
    | [] -> tt
    | [ p ] -> p
    | ps -> make (And ps)

let disj ps =
  let ps =
    List.concat_map
      (fun p -> match p.node with False -> [] | Or qs -> qs | _ -> [ p ])
      ps
  in
  if List.exists is_true ps then tt
  else
    match dedup ps with
    | [] -> ff
    | [ p ] -> p
    | ps -> make (Or ps)

let and_ p q = conj [ p; q ]
let or_ p q = disj [ p; q ]

let imp p q =
  match (p.node, q.node) with
  | True, _ -> q
  | False, _ -> tt
  | _, True -> tt
  | _, False -> not_ p
  | _ -> if equal p q then tt else make (Imp (p, q))

let iff p q =
  match (p.node, q.node) with
  | True, _ -> q
  | _, True -> p
  | False, _ -> not_ q
  | _, False -> not_ p
  | _ -> if equal p q then tt else make (Iff (p, q))

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec fold_atoms f acc p =
  match p.node with
  | True | False -> acc
  | Atom _ -> f acc p
  | Bvar _ -> f acc p
  | Not q -> fold_atoms f acc q
  | And ps | Or ps -> List.fold_left (fold_atoms f) acc ps
  | Imp (q, r) | Iff (q, r) -> fold_atoms f (fold_atoms f acc q) r

let dedup_vars vs =
  Listx.dedup_ordered
    ~compare:(fun (x, _) (y, _) -> Ident.compare x y)
    vs

(** Free variables with sorts ([Bvar]s are [Bool]), deduplicated, in
    left-to-right first-occurrence order.  Memoized per node. *)
let rec free_vars p =
  match p.fvs with
  | Some vs -> vs
  | None ->
      let vs =
        match p.node with
        | True | False -> []
        | Atom (a, _, b) -> dedup_vars (Term.vars a @ Term.vars b)
        | Bvar x -> [ (x, Sort.Bool) ]
        | Not q -> free_vars q
        | And ps | Or ps -> dedup_vars (List.concat_map free_vars ps)
        | Imp (q, r) | Iff (q, r) -> dedup_vars (free_vars q @ free_vars r)
      in
      p.fvs <- Some vs;
      vs

let mem_var x p = List.exists (fun (y, _) -> Ident.equal x y) (free_vars p)

(** Uninterpreted symbols appearing in a predicate. *)
let symbols p =
  let rec term_syms acc t =
    match Term.view t with
    | Term.App (f, ts) -> List.fold_left term_syms (f :: acc) ts
    | Term.Neg t -> term_syms acc t
    | Term.Add (a, b) | Term.Sub (a, b) | Term.Mul (a, b) ->
        term_syms (term_syms acc a) b
    | Term.Int _ | Term.Var _ -> acc
  in
  let atom_syms acc p =
    match p.node with
    | Atom (a, _, b) -> term_syms (term_syms acc a) b
    | _ -> acc
  in
  Listx.dedup_ordered ~compare:Symbol.compare (fold_atoms atom_syms [] p)

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

(** Values substitutable for a variable: a term (for [Int]/[Obj]-sorted
    variables) or a predicate (for [Bool]-sorted variables appearing as
    [Bvar] atoms). *)
type value = Tm of Term.t | Pr of t

type subst = value Ident.Map.t

let term_part (m : subst) : Term.t Ident.Map.t =
  Ident.Map.filter_map (fun _ -> function Tm t -> Some t | Pr _ -> None) m

let subst (m : subst) p =
  let tm = lazy (term_part m) in
  let rec go p =
    (* Sub-formulas mentioning no substituted variable are returned
       unchanged, preserving sharing. *)
    if not (List.exists (fun (x, _) -> Ident.Map.mem x m) (free_vars p)) then p
    else
      match p.node with
      | True | False -> p
      | Atom (a, r, b) ->
          let tm = Lazy.force tm in
          atom (Term.subst tm a) r (Term.subst tm b)
      | Bvar x -> (
          match Ident.Map.find_opt x m with
          | Some (Pr q) -> q
          | Some (Tm t) -> (
              match Term.view t with
              | Term.Var (y, Sort.Bool) -> make (Bvar y)
              | _ -> p (* ill-sorted substitution: ignore, keep atom *))
          | None -> p)
      | Not q -> not_ (go q)
      | And ps -> conj (List.map go ps)
      | Or ps -> disj (List.map go ps)
      | Imp (q, r) -> imp (go q) (go r)
      | Iff (q, r) -> iff (go q) (go r)
  in
  go p

let subst1 x v p = subst (Ident.Map.singleton x v) p

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_brel ppf r =
  Fmt.string ppf
    (match r with
    | Eq -> "="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

let rec pp ppf p =
  match p.node with
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom (a, r, b) -> Fmt.pf ppf "%a %a %a" Term.pp a pp_brel r Term.pp b
  | Bvar x -> Ident.pp ppf x
  | Not p -> Fmt.pf ppf "not (%a)" pp p
  | And ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " && ") pp) ps
  | Or ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " || ") pp) ps
  | Imp (p, q) -> Fmt.pf ppf "(%a => %a)" pp p pp q
  | Iff (p, q) -> Fmt.pf ppf "(%a <=> %a)" pp p pp q

let to_string p = Fmt.str "%a" pp p

(* ------------------------------------------------------------------ *)
(* Evaluation (used by property tests to cross-check the SMT solver)   *)
(* ------------------------------------------------------------------ *)

(** Ground evaluation of a term under an integer assignment.  [Obj]-sorted
    variables and uninterpreted applications are evaluated by hashing
    (a fixed interpretation), which is enough to refute bogus validity
    claims in randomized tests. *)
let rec eval_term (env : int Ident.Map.t) (t : Term.t) : int =
  match Term.view t with
  | Term.Int n -> n
  | Term.Var (x, _) -> (
      match Ident.Map.find_opt x env with
      | Some v -> v
      | None -> Hashtbl.hash x mod 17)
  | Term.App (f, ts) ->
      let args = List.map (eval_term env) ts in
      Hashtbl.hash (Symbol.name f, args) mod 1009
  | Term.Neg t -> -eval_term env t
  | Term.Add (a, b) -> eval_term env a + eval_term env b
  | Term.Sub (a, b) -> eval_term env a - eval_term env b
  | Term.Mul (a, b) -> eval_term env a * eval_term env b

let rec eval (ienv : int Ident.Map.t) (benv : bool Ident.Map.t) (p : t) : bool =
  match p.node with
  | True -> true
  | False -> false
  | Atom (a, r, b) -> (
      let x = eval_term ienv a and y = eval_term ienv b in
      match r with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y)
  | Bvar x -> (
      match Ident.Map.find_opt x benv with Some b -> b | None -> false)
  | Not p -> not (eval ienv benv p)
  | And ps -> List.for_all (eval ienv benv) ps
  | Or ps -> List.exists (eval ienv benv) ps
  | Imp (p, q) -> (not (eval ienv benv p)) || eval ienv benv q
  | Iff (p, q) -> eval ienv benv p = eval ienv benv q
