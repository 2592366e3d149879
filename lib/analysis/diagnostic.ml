(** Structured semantic-lint diagnostics.

    Every diagnostic carries a stable warning code (the [L0xx] names are
    part of the tool's interface: scripts match on them), a severity, a
    source location, and a human-readable message.  Codes are never
    renumbered; retired analyses leave gaps. *)

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

let code_name = function
  | Unreachable_branch -> "L001"
  | Trivial_condition -> "L002"
  | Unused_binding -> "L003"
  | Shadowed_binding -> "L004"
  | Dead_qualifier -> "L005"
  | Runtime_failure -> "R001"

let severity_name = function Info -> "info" | Warning -> "warning"

(** Default severity of a code.  Dead qualifiers are hints about the
    qualifier set, not about the program, so they never gate
    [--warn-error]. *)
let default_severity = function
  | Unreachable_branch | Trivial_condition | Unused_binding
  | Shadowed_binding ->
      Warning
  | Dead_qualifier -> Info
  | Runtime_failure -> Warning

let make ?severity code loc message =
  let severity =
    match severity with Some s -> s | None -> default_severity code
  in
  { code; severity; loc; message }

let is_warning d = d.severity = Warning

let code_rank = function
  | Unreachable_branch -> 1
  | Trivial_condition -> 2
  | Unused_binding -> 3
  | Shadowed_binding -> 4
  | Dead_qualifier -> 5
  | Runtime_failure -> 6

(** Report order: source position, then code, then message. *)
let compare a b =
  match Loc.compare a.loc b.loc with
  | 0 -> (
      match Int.compare (code_rank a.code) (code_rank b.code) with
      | 0 -> String.compare a.message b.message
      | c -> c)
  | c -> c

let pp ppf d =
  Fmt.pf ppf "%a: %s[%s]: %s" Loc.pp d.loc (severity_name d.severity)
    (code_name d.code) d.message

let json_of_loc (loc : Loc.t) : Json.t =
  if Loc.is_dummy loc then Json.Null
  else
    Json.Obj
      [
        ("file", Json.String loc.Loc.file);
        ("line", Json.Int loc.Loc.start_pos.Loc.line);
        ("col", Json.Int loc.Loc.start_pos.Loc.col);
        ("end_line", Json.Int loc.Loc.end_pos.Loc.line);
        ("end_col", Json.Int loc.Loc.end_pos.Loc.col);
      ]

let to_json d =
  Json.Obj
    [
      ("code", Json.String (code_name d.code));
      ("severity", Json.String (severity_name d.severity));
      ("loc", json_of_loc d.loc);
      ("message", Json.String d.message);
    ]
