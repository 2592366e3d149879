(** Logical qualifiers and their instantiation into the candidate set Q*.

    A qualifier is a named boolean pattern over the value variable [v],
    literals, program variables, the measures [len]/[llen], and
    placeholders [_] (independent occurrences) or [_A], [_B] (named,
    instantiated consistently).  Concrete syntax, one declaration per
    line:

    {v
      qualif Pos(v)   : 0 <= v
      qualif UBLen(v) : v < len _
      qualif Rel(v)   : v <= _A && _A <= len _B
    v} *)

open Liquid_common
open Liquid_logic

(** Raw (sort-agnostic) pattern terms and predicates. *)

type rterm = Qualparse.rterm =
  | Rint of int
  | Rvar of string (* "v", a placeholder "*k"/"*A", or a program variable *)
  | Rmeasure of string * rterm
  | Rneg of rterm
  | Radd of rterm * rterm
  | Rsub of rterm * rterm
  | Rmul of rterm * rterm

type rpred = Qualparse.rpred =
  | Rtrue
  | Rfalse
  | Ratom of rterm * Pred.brel * rterm
  | Rbool of rterm
  | Rnot of rpred
  | Rand of rpred * rpred
  | Ror of rpred * rpred
  | Rimp of rpred * rpred
  | Riff of rpred * rpred

type t = {
  name : string;
  body : rpred;
  placeholders : string list;
  loc : Loc.t; (* of the declaration; [Loc.dummy] for programmatic quals *)
}

val make : ?loc:Loc.t -> string -> rpred -> t

exception Parse_error of string

(** Parse qualifier declarations.  [file] names the source in declaration
    locations (default ["<qualifiers>"]).
    @raise Parse_error on malformed input. *)
val parse_string : ?file:string -> string -> t list

exception Ill_sorted

(** Well-sorted instances for a template position of sort [vv_sort], with
    placeholders ranging over the (non-internal) variables of [scope]
    and, optionally, the mined integer [consts].  Instances from distinct
    qualifiers that are alpha-equivalent modulo atom orientation are
    collapsed to their first occurrence (provenance merged); [collapsed]
    is incremented once per collapse. *)
val instances :
  ?consts:int list ->
  ?collapsed:int ref ->
  t list ->
  vv_sort:Sort.t ->
  scope:(Ident.t * Sort.t) list ->
  Pred.t list

(** As {!instances}, with each instance tagged by the names of the
    qualifier patterns that produced it (dead-qualifier provenance). *)
val instances_tagged :
  ?consts:int list ->
  ?collapsed:int ref ->
  t list ->
  vv_sort:Sort.t ->
  scope:(Ident.t * Sort.t) list ->
  (Pred.t * string list) list

(** The shared default qualifier set (see the paper's Figure 1). *)
val defaults : t list

(** Qualifiers for list-length ([llen]) reasoning; kept separate so
    array-only programs don't pay for the extra instances. *)
val list_defaults : t list

(** Qualifier patterns for the named user measures (the [llen] set,
    generalized).  Call after the measure table is loaded: the pattern
    parser only recognizes registered measure names. *)
val measure_defaults : string list -> t list

val pp_rterm : Format.formatter -> rterm -> unit
val pp_rpred : Format.formatter -> rpred -> unit
val pp : Format.formatter -> t -> unit
