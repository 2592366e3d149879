(** Source locations: a span of positions within a named input. *)

type pos = { line : int; col : int }

type t = { file : string; start_pos : pos; end_pos : pos }

val dummy_pos : pos
val dummy : t
val is_dummy : t -> bool

(** Build a span from two lexer positions. *)
val of_lexing : Lexing.position -> Lexing.position -> t

(** Smallest span covering both locations (assumes the same file). *)
val merge : t -> t -> t

(** [contains outer inner]: does [outer] span all of [inner]?  False when
    either location is dummy or the files differ. *)
val contains : t -> t -> bool

(** Total order: by file, then start position, then end position. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
