(** Source locations: a span of positions within a named input. *)

type pos = { line : int; col : int }

type t = { file : string; start_pos : pos; end_pos : pos }

let dummy_pos = { line = 0; col = 0 }

let dummy = { file = "<none>"; start_pos = dummy_pos; end_pos = dummy_pos }

let is_dummy t = t.file = "<none>"

let of_lexing (p1 : Lexing.position) (p2 : Lexing.position) =
  let cvt (p : Lexing.position) =
    { line = p.pos_lnum; col = p.pos_cnum - p.pos_bol }
  in
  { file = p1.pos_fname; start_pos = cvt p1; end_pos = cvt p2 }

(** Smallest span covering both locations (assumes same file). *)
let merge a b =
  if is_dummy a then b
  else if is_dummy b then a
  else
    let le p q = p.line < q.line || (p.line = q.line && p.col <= q.col) in
    {
      file = a.file;
      start_pos = (if le a.start_pos b.start_pos then a.start_pos else b.start_pos);
      end_pos = (if le a.end_pos b.end_pos then b.end_pos else a.end_pos);
    }

(** [contains outer inner]: does [outer] span all of [inner]?  False when
    either location is dummy or the files differ. *)
let contains outer inner =
  (not (is_dummy outer))
  && (not (is_dummy inner))
  && outer.file = inner.file
  &&
  let le p q = p.line < q.line || (p.line = q.line && p.col <= q.col) in
  le outer.start_pos inner.start_pos && le inner.end_pos outer.end_pos

(** Total order: by file, then start position, then end position. *)
let compare a b =
  let pos_compare p q =
    match Int.compare p.line q.line with
    | 0 -> Int.compare p.col q.col
    | c -> c
  in
  match String.compare a.file b.file with
  | 0 -> (
      match pos_compare a.start_pos b.start_pos with
      | 0 -> pos_compare a.end_pos b.end_pos
      | c -> c)
  | c -> c

let pp ppf t =
  if is_dummy t then Fmt.string ppf "<unknown>"
  else
    Fmt.pf ppf "%s:%d.%d-%d.%d" t.file t.start_pos.line t.start_pos.col
      t.end_pos.line t.end_pos.col
