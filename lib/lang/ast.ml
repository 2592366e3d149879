(** Abstract syntax of NanoML, the core-ML source language of the
    reproduction.

    NanoML is the λL calculus of the paper fleshed out with the features
    its benchmark suite needs: integers, booleans, unit, tuples, lists,
    arrays (via refined primitives), higher-order functions, conditionals,
    (recursive) let bindings with ML-style polymorphism, pattern matching
    and assertions.

    Design notes:
    - [&&]/[||] are desugared by the parser into [if] so the refinement
      system gets their path-sensitivity for free;
    - array accesses [a.(i)] and updates [a.(i) <- e] are desugared into
      applications of the refined primitives [Array.get]/[Array.set]
      (see {!Prim});
    - sequencing [e1; e2] desugars into [let _ = e1 in e2];
    - every expression node carries a unique id so later passes can attach
      information in side tables without mutating the AST. *)

open Liquid_common

type const = Cint of int | Cbool of bool | Cunit

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type unop = Neg | Not

type rec_flag = Nonrec | Rec

type pat =
  | Pwild
  | Pvar of Ident.t
  | Punit
  | Pbool of bool
  | Pint of int
  | Ptuple of pat list
  | Pnil
  | Pcons of pat * pat
  | Pconstr of string * pat list

type expr = { id : int; loc : Loc.t; desc : desc }

and desc =
  | Const of const
  | Var of Ident.t
  | Fun of Ident.t * expr
  | App of expr * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | If of expr * expr * expr
  | Let of rec_flag * Ident.t * expr * expr
  | Tuple of expr list
  | Nil
  | Cons of expr * expr
  | Match of expr * (pat * expr) list
  | Assert of expr
  | Constr of string * expr list (* saturated user-constructor application *)

(** A program is a list of top-level bindings, each a name bound to an
    expression, followed by an optional anonymous "main" expression list
    (top-level [let _ = e] or [let () = e] items). *)
type item = { item_loc : Loc.t; rec_flag : rec_flag; name : Ident.t; body : expr }

type program = item list

(* -- Declarations ----------------------------------------------------- *)

(** A type expression in a constructor declaration: [int], [bool],
    [unit], or the name of a (possibly recursively occurring) ADT. *)
type tyexpr = { ty_name : string; ty_loc : Loc.t }

type ctor_decl = { c_name : string; c_loc : Loc.t; c_args : tyexpr list }

(** [type t = C1 of ty * … | C2 | …] *)
type tydecl = {
  t_name : string;
  t_name_loc : Loc.t;
  t_ctors : ctor_decl list;
  t_loc : Loc.t;
}

(** Right-hand sides of measure equations: integer terms over the
    equation's binders, measure applications ([Mcall] also covers the
    built-in [max]/[min]), and arithmetic. *)
type mterm =
  | Mint of int
  | Mvar of string * Loc.t
  | Mcall of string * Loc.t * mterm list
  | Mneg of mterm
  | Madd of mterm * mterm
  | Msub of mterm * mterm
  | Mmul of mterm * mterm

(** [| C (x, …) -> body] — one structurally recursive equation.
    Argument binders are [None] for [_]. *)
type meqn = {
  eq_ctor : string;
  eq_ctor_loc : Loc.t;
  eq_args : (string option * Loc.t) list;
  eq_body : mterm;
  eq_loc : Loc.t;
}

(** [measure m : t = | C1 … -> … | C2 … -> …] *)
type measure_decl = {
  m_name : string;
  m_name_loc : Loc.t;
  m_tycon : string;
  m_tycon_loc : Loc.t;
  m_eqns : meqn list;
  m_loc : Loc.t;
}

(** The declarations of a compilation unit, in source order within each
    kind.  Declarations scope over the whole program. *)
type decls = { types : tydecl list; measures : measure_decl list }

let no_decls = { types = []; measures = [] }

(* -- Construction ---------------------------------------------------- *)

let next_id = ref 0

let mk ?(loc = Loc.dummy) desc =
  incr next_id;
  { id = !next_id; loc; desc }

(* -- Pattern helpers -------------------------------------------------- *)

let rec pat_vars = function
  | Pwild | Punit | Pbool _ | Pint _ | Pnil -> []
  | Pvar x -> [ x ]
  | Ptuple ps | Pconstr (_, ps) -> List.concat_map pat_vars ps
  | Pcons (p1, p2) -> pat_vars p1 @ pat_vars p2

(* -- Traversal --------------------------------------------------------- *)

(** Fold over all sub-expressions, top-down. *)
let rec fold f acc e =
  let acc = f acc e in
  match e.desc with
  | Const _ | Var _ | Nil -> acc
  | Fun (_, e1) | Unop (_, e1) | Assert e1 -> fold f acc e1
  | App (e1, e2) | Binop (_, e1, e2) | Cons (e1, e2) | Let (_, _, e1, e2) ->
      fold f (fold f acc e1) e2
  | If (e1, e2, e3) -> fold f (fold f (fold f acc e1) e2) e3
  | Tuple es | Constr (_, es) -> List.fold_left (fold f) acc es
  | Match (e1, cases) ->
      List.fold_left (fun acc (_, e) -> fold f acc e) (fold f acc e1) cases

(** Number of expression nodes (used for statistics). *)
let size e = fold (fun n _ -> n + 1) 0 e

(** Free variables of an expression. *)
let free_vars e =
  let rec go bound acc e =
    match e.desc with
    | Const _ | Nil -> acc
    | Var x -> if Ident.Set.mem x bound then acc else Ident.Set.add x acc
    | Fun (x, e1) -> go (Ident.Set.add x bound) acc e1
    | App (e1, e2) | Binop (_, e1, e2) | Cons (e1, e2) ->
        go bound (go bound acc e1) e2
    | Unop (_, e1) | Assert e1 -> go bound acc e1
    | If (e1, e2, e3) -> go bound (go bound (go bound acc e1) e2) e3
    | Let (Nonrec, x, e1, e2) ->
        go (Ident.Set.add x bound) (go bound acc e1) e2
    | Let (Rec, x, e1, e2) ->
        let bound = Ident.Set.add x bound in
        go bound (go bound acc e1) e2
    | Tuple es | Constr (_, es) -> List.fold_left (go bound) acc es
    | Match (e1, cases) ->
        List.fold_left
          (fun acc (p, e) ->
            let bound =
              List.fold_left (fun b x -> Ident.Set.add x b) bound (pat_vars p)
            in
            go bound acc e)
          (go bound acc e1) cases
  in
  go Ident.Set.empty Ident.Set.empty e

(* -- Printing ----------------------------------------------------------- *)

let pp_const ppf = function
  | Cint n -> Fmt.int ppf n
  | Cbool b -> Fmt.bool ppf b
  | Cunit -> Fmt.string ppf "()"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_pat ppf = function
  | Pwild -> Fmt.string ppf "_"
  | Pvar x -> Ident.pp ppf x
  | Punit -> Fmt.string ppf "()"
  | Pbool b -> Fmt.bool ppf b
  | Pint n -> Fmt.int ppf n
  | Ptuple ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_pat) ps
  | Pnil -> Fmt.string ppf "[]"
  | Pcons (p1, p2) -> Fmt.pf ppf "%a :: %a" pp_pat p1 pp_pat p2
  | Pconstr (c, []) -> Fmt.string ppf c
  | Pconstr (c, ps) ->
      Fmt.pf ppf "%s (%a)" c Fmt.(list ~sep:comma pp_pat) ps

let rec pp ppf e =
  match e.desc with
  | Const c -> pp_const ppf c
  | Var x -> Ident.pp ppf x
  | Fun (x, e) -> Fmt.pf ppf "(fun %a -> %a)" Ident.pp x pp e
  | App (e1, e2) -> Fmt.pf ppf "(%a %a)" pp e1 pp e2
  | Binop (op, e1, e2) ->
      Fmt.pf ppf "(%a %s %a)" pp e1 (binop_name op) pp e2
  | Unop (Neg, e) -> Fmt.pf ppf "(- %a)" pp e
  | Unop (Not, e) -> Fmt.pf ppf "(not %a)" pp e
  | If (e1, e2, e3) ->
      Fmt.pf ppf "@[<hv>(if %a@ then %a@ else %a)@]" pp e1 pp e2 pp e3
  | Let (rf, x, e1, e2) ->
      Fmt.pf ppf "@[<v>let%s %a = %a in@ %a@]"
        (match rf with Rec -> " rec" | Nonrec -> "")
        Ident.pp x pp e1 pp e2
  | Tuple es -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp) es
  | Nil -> Fmt.string ppf "[]"
  | Cons (e1, e2) -> Fmt.pf ppf "(%a :: %a)" pp e1 pp e2
  | Match (e, cases) ->
      let pp_case ppf (p, e) = Fmt.pf ppf "| %a -> %a" pp_pat p pp e in
      Fmt.pf ppf "@[<v>(match %a with@ %a)@]" pp e
        Fmt.(list ~sep:sp pp_case)
        cases
  | Assert e -> Fmt.pf ppf "(assert %a)" pp e
  | Constr (c, []) -> Fmt.string ppf c
  | Constr (c, es) -> Fmt.pf ppf "%s (%a)" c Fmt.(list ~sep:comma pp) es
