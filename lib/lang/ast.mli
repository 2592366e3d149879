(** Abstract syntax of NanoML (see the parser for the surface
    desugarings).  Every expression node carries a unique id so later
    passes can attach information in side tables. *)

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

(** A top-level binding. *)
type item = {
  item_loc : Loc.t;
  rec_flag : rec_flag;
  name : Ident.t;
  body : expr;
}

type program = item list

(** A type expression in a constructor declaration: [int], [bool],
    [unit], or an ADT name. *)
type tyexpr = { ty_name : string; ty_loc : Loc.t }

type ctor_decl = { c_name : string; c_loc : Loc.t; c_args : tyexpr list }

(** [type t = C1 of ty * … | C2 | …] *)
type tydecl = {
  t_name : string;
  t_name_loc : Loc.t;
  t_ctors : ctor_decl list;
  t_loc : Loc.t;
}

(** Measure-equation right-hand sides ([Mcall] also covers [max]/[min]). *)
type mterm =
  | Mint of int
  | Mvar of string * Loc.t
  | Mcall of string * Loc.t * mterm list
  | Mneg of mterm
  | Madd of mterm * mterm
  | Msub of mterm * mterm
  | Mmul of mterm * mterm

(** One structurally recursive equation; argument binders are [None]
    for [_]. *)
type meqn = {
  eq_ctor : string;
  eq_ctor_loc : Loc.t;
  eq_args : (string option * Loc.t) list;
  eq_body : mterm;
  eq_loc : Loc.t;
}

(** [measure m : t = | C1 … -> … | …] *)
type measure_decl = {
  m_name : string;
  m_name_loc : Loc.t;
  m_tycon : string;
  m_tycon_loc : Loc.t;
  m_eqns : meqn list;
  m_loc : Loc.t;
}

(** Declarations of a compilation unit, in source order per kind. *)
type decls = { types : tydecl list; measures : measure_decl list }

val no_decls : decls

(** Construct a node with a fresh id. *)
val mk : ?loc:Loc.t -> desc -> expr

val pat_vars : pat -> Ident.t list

(** Fold over all sub-expressions, top-down. *)
val fold : ('a -> expr -> 'a) -> 'a -> expr -> 'a

(** Number of expression nodes. *)
val size : expr -> int

val free_vars : expr -> Ident.Set.t

val pp : Format.formatter -> expr -> unit
