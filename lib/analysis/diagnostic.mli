(** Structured semantic-lint diagnostics with stable warning codes. *)

open Liquid_common

type code =
  | Unreachable_branch (* L001 *)
  | Trivial_condition (* L002: provably always-true or always-false *)
  | Unused_binding (* L003 *)
  | Shadowed_binding (* L004 *)
  | Dead_qualifier (* L005: every instance pruned from every κ *)
  | Runtime_failure (* R001: a runtime safety check failed under --run *)

type severity = Info | Warning

type t = { code : code; severity : severity; loc : Loc.t; message : string }

(** The stable code string, ["L001"] ... ["L005"], ["R001"]. *)
val code_name : code -> string

(** Warnings gate [--warn-error]; dead qualifiers default to [Info]. *)
val default_severity : code -> severity

val make : ?severity:severity -> code -> Loc.t -> string -> t
val is_warning : t -> bool

(** Report order: source position, then code, then message. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val json_of_loc : Loc.t -> Json.t
val to_json : t -> Json.t
