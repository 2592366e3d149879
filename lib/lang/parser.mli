(** Recursive-descent parser for NanoML.  Performs the surface
    desugarings ([&&]/[||] to [if], sequencing to [let _], array sugar to
    [Array.get]/[Array.set] applications, multi-parameter and
    pattern-binding [let]s, list literals). *)

open Liquid_common

exception Error of string * Loc.t

(** Parse a whole compilation unit: top-level [let] items interleaved
    with [type] and [measure] declarations.  Declarations are collected
    into {!Ast.decls} (source order per kind) and are only checked
    syntactically here — semantic validation (unknown constructors,
    non-structural recursion, …) is {!Declcheck.check}.
    @raise Error on syntax errors, lexer errors included. *)
val parse_string : ?file:string -> string -> Ast.program * Ast.decls

(** The item-only views ([fst] of the above, from a string or a file) —
    convenient for declaration-free programs. *)
val program_of_string : ?file:string -> string -> Ast.program
val program_of_file : string -> Ast.program

(** Parse a single expression (for tests and tools).
    @raise Error on trailing input. *)
val expr_of_string : ?file:string -> string -> Ast.expr
