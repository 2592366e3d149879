(** Recursive-descent parser for NanoML.

    The grammar is a small OCaml subset; see {!Ast} for the constructs and
    the desugarings performed here:

    - [e1 && e2]  ⟶  [if e1 then e2 else false]
    - [e1 || e2]  ⟶  [if e1 then true else e2]
    - [e1; e2]    ⟶  [let _ = e1 in e2]
    - [a.(i)]     ⟶  [Array.get a i]
    - [a.(i) <- e] ⟶ [Array.set a i e]
    - [let f x y = e] ⟶ [let f = fun x -> fun y -> e]
    - [let (x, y) = e in b] ⟶ [match e with (x, y) -> b]
    - list literals [\[e1; e2\]] ⟶ cons chains

    Operator precedence, low to high: tuple ([,]) < [||] < [&&] <
    comparison < [::] (right) < additive < multiplicative < unary <
    application < postfix ([.( )]). *)

open Liquid_common
open Ast

exception Error of string * Loc.t

type state = {
  lexbuf : Lexing.lexbuf;
  file : string;
  mutable tok : Token.t;
  mutable start_p : Lexing.position;
  mutable end_p : Lexing.position;
  mutable prev_end_p : Lexing.position;
}

let advance st =
  st.prev_end_p <- st.end_p;
  st.tok <- Lexer.token st.lexbuf;
  st.start_p <- Lexing.lexeme_start_p st.lexbuf;
  st.end_p <- Lexing.lexeme_end_p st.lexbuf

let init file lexbuf =
  Lexing.set_filename lexbuf file;
  let st =
    {
      lexbuf;
      file;
      tok = Token.EOF;
      start_p = Lexing.dummy_pos;
      end_p = Lexing.dummy_pos;
      prev_end_p = Lexing.dummy_pos;
    }
  in
  advance st;
  st

let loc_here st = Loc.of_lexing st.start_p st.end_p

let loc_from st start_p = Loc.of_lexing start_p st.prev_end_p

let error st msg = raise (Error (msg, loc_here st))

let expect st tok =
  if st.tok = tok then advance st
  else
    error st
      (Printf.sprintf "expected '%s' but found '%s'" (Token.to_string tok)
         (Token.to_string st.tok))

let fresh_wild () = Gensym.fresh "wild"

(* -- Patterns ---------------------------------------------------------- *)

let rec parse_pattern st : pat =
  let p = parse_atom_pattern st in
  match st.tok with
  | Token.COLONCOLON ->
      advance st;
      let p2 = parse_pattern st in
      Pcons (p, p2)
  | _ -> p

and parse_atom_pattern st : pat =
  match st.tok with
  | Token.UNDERSCORE ->
      advance st;
      Pwild
  | Token.IDENT x ->
      advance st;
      Pvar (Ident.of_string x)
  | Token.UIDENT c ->
      advance st;
      if starts_atom_pattern st.tok then
        let p = parse_atom_pattern st in
        let args = match p with Ptuple ps -> ps | p -> [ p ] in
        Pconstr (c, args)
      else Pconstr (c, [])
  | Token.INT n ->
      advance st;
      Pint n
  | Token.MINUS ->
      advance st;
      (match st.tok with
      | Token.INT n ->
          advance st;
          Pint (-n)
      | _ -> error st "expected an integer literal after '-' in pattern")
  | Token.TRUE ->
      advance st;
      Pbool true
  | Token.FALSE ->
      advance st;
      Pbool false
  | Token.LBRACKET ->
      advance st;
      expect st Token.RBRACKET;
      Pnil
  | Token.LPAREN -> (
      advance st;
      match st.tok with
      | Token.RPAREN ->
          advance st;
          Punit
      | _ ->
          let p = parse_pattern st in
          let ps = ref [ p ] in
          while st.tok = Token.COMMA do
            advance st;
            ps := parse_pattern st :: !ps
          done;
          expect st Token.RPAREN;
          (match !ps with [ p ] -> p | ps -> Ptuple (List.rev ps)))
  | t -> error st (Printf.sprintf "unexpected token '%s' in pattern" (Token.to_string t))

and starts_atom_pattern = function
  | Token.UNDERSCORE | Token.IDENT _ | Token.UIDENT _ | Token.INT _
  | Token.MINUS | Token.TRUE | Token.FALSE | Token.LBRACKET | Token.LPAREN ->
      true
  | _ -> false

(* -- Function parameters ------------------------------------------------ *)

(** A parameter is an identifier, [_], [()], or a parenthesized (tuple)
    pattern.  Returns a binder name and an optional pattern to match the
    binder against in the body. *)
let parse_param st : Ident.t * pat option =
  match st.tok with
  | Token.IDENT x ->
      advance st;
      (Ident.of_string x, None)
  | Token.UNDERSCORE ->
      advance st;
      (fresh_wild (), None)
  | Token.LPAREN -> (
      advance st;
      match st.tok with
      | Token.RPAREN ->
          advance st;
          (fresh_wild (), None)
      | _ ->
          let p = parse_pattern st in
          let ps = ref [ p ] in
          while st.tok = Token.COMMA do
            advance st;
            ps := parse_pattern st :: !ps
          done;
          expect st Token.RPAREN;
          let pat =
            match !ps with [ p ] -> p | ps -> Ptuple (List.rev ps)
          in
          (match pat with
          | Pvar x -> (x, None)
          | _ ->
              let tmp = Gensym.fresh "param" in
              (tmp, Some pat)))
  | t -> error st (Printf.sprintf "unexpected token '%s' in parameter list" (Token.to_string t))

let starts_param = function
  | Token.IDENT _ | Token.UNDERSCORE | Token.LPAREN -> true
  | _ -> false

(* -- Expressions --------------------------------------------------------- *)

let rec parse_seq st : expr =
  let start = st.start_p in
  let e = parse_expr st in
  if st.tok = Token.SEMI then begin
    advance st;
    let rest = parse_seq st in
    mk ~loc:(loc_from st start) (Let (Nonrec, fresh_wild (), e, rest))
  end
  else e

and parse_expr st : expr =
  let start = st.start_p in
  match st.tok with
  | Token.IF ->
      advance st;
      let cond = parse_expr st in
      expect st Token.THEN;
      let e1 = parse_expr st in
      expect st Token.ELSE;
      let e2 = parse_expr st in
      mk ~loc:(loc_from st start) (If (cond, e1, e2))
  | Token.FUN ->
      advance st;
      let params = parse_params st in
      expect st Token.ARROW;
      let body = parse_expr st in
      build_fun ~loc:(loc_from st start) params body
  | Token.LET -> parse_let st
  | Token.MATCH ->
      advance st;
      let scrut = parse_seq st in
      expect st Token.WITH;
      if st.tok = Token.BAR then advance st;
      let cases = parse_cases st in
      mk ~loc:(loc_from st start) (Match (scrut, cases))
  | Token.ASSERT ->
      advance st;
      let e = parse_app st in
      mk ~loc:(loc_from st start) (Assert e)
  | _ -> parse_tuple st

and parse_params st =
  let rec go acc =
    if starts_param st.tok then go (parse_param st :: acc) else List.rev acc
  in
  let ps = go [] in
  if ps = [] then error st "expected at least one parameter";
  ps

and build_fun ~loc params body =
  List.fold_right
    (fun (x, pat) acc ->
      let acc =
        match pat with
        | None -> acc
        | Some p ->
            mk ~loc (Match (mk ~loc (Var x), [ (p, acc) ]))
      in
      mk ~loc (Fun (x, acc)))
    params body

and parse_let st : expr =
  let start = st.start_p in
  expect st Token.LET;
  let rec_flag = if st.tok = Token.REC then (advance st; Rec) else Nonrec in
  (* Binder: identifier (possibly with params), or a pattern. *)
  match st.tok with
  | Token.IDENT x ->
      advance st;
      let name = Ident.of_string x in
      let params =
        let rec go acc =
          if starts_param st.tok then go (parse_param st :: acc)
          else List.rev acc
        in
        go []
      in
      expect st Token.EQ;
      let rhs = parse_seq st in
      let rhs =
        if params = [] then rhs
        else build_fun ~loc:(loc_from st start) params rhs
      in
      expect st Token.IN;
      let body = parse_seq st in
      mk ~loc:(loc_from st start) (Let (rec_flag, name, rhs, body))
  | _ ->
      if rec_flag = Rec then error st "'let rec' requires a named binder";
      let pat = parse_pattern st in
      expect st Token.EQ;
      let rhs = parse_seq st in
      expect st Token.IN;
      let body = parse_seq st in
      let loc = loc_from st start in
      (match pat with
      | Pwild -> mk ~loc (Let (Nonrec, fresh_wild (), rhs, body))
      | Pvar x -> mk ~loc (Let (Nonrec, x, rhs, body))
      | _ -> mk ~loc (Match (rhs, [ (pat, body) ])))

and parse_cases st =
  let case () =
    let p = parse_pattern st in
    expect st Token.ARROW;
    let e = parse_seq st in
    (p, e)
  in
  let first = case () in
  let rec go acc =
    if st.tok = Token.BAR then begin
      advance st;
      go (case () :: acc)
    end
    else List.rev acc
  in
  go [ first ]

and parse_tuple st : expr =
  let start = st.start_p in
  let e = parse_or st in
  if st.tok = Token.COMMA then begin
    let es = ref [ e ] in
    while st.tok = Token.COMMA do
      advance st;
      es := parse_or st :: !es
    done;
    mk ~loc:(loc_from st start) (Tuple (List.rev !es))
  end
  else e

and parse_or st : expr =
  let start = st.start_p in
  let e = parse_and st in
  if st.tok = Token.BARBAR then begin
    advance st;
    let rhs = parse_or st in
    let loc = loc_from st start in
    mk ~loc (If (e, mk ~loc (Const (Cbool true)), rhs))
  end
  else e

and parse_and st : expr =
  let start = st.start_p in
  let e = parse_cmp st in
  if st.tok = Token.AMPAMP then begin
    advance st;
    let rhs = parse_and st in
    let loc = loc_from st start in
    mk ~loc (If (e, rhs, mk ~loc (Const (Cbool false))))
  end
  else e

and parse_cmp st : expr =
  let start = st.start_p in
  let e = parse_cons st in
  let op =
    match st.tok with
    | Token.EQ -> Some Eq
    | Token.NE -> Some Ne
    | Token.LT -> Some Lt
    | Token.LE -> Some Le
    | Token.GT -> Some Gt
    | Token.GE -> Some Ge
    | _ -> None
  in
  match op with
  | None -> e
  | Some op ->
      advance st;
      let rhs = parse_cons st in
      mk ~loc:(loc_from st start) (Binop (op, e, rhs))

and parse_cons st : expr =
  let start = st.start_p in
  let e = parse_add st in
  if st.tok = Token.COLONCOLON then begin
    advance st;
    let rhs = parse_cons st in
    mk ~loc:(loc_from st start) (Cons (e, rhs))
  end
  else e

and parse_add st : expr =
  let start = st.start_p in
  let e = ref (parse_mul st) in
  let continue_ = ref true in
  while !continue_ do
    match st.tok with
    | Token.PLUS ->
        advance st;
        let rhs = parse_mul st in
        e := mk ~loc:(loc_from st start) (Binop (Add, !e, rhs))
    | Token.MINUS ->
        advance st;
        let rhs = parse_mul st in
        e := mk ~loc:(loc_from st start) (Binop (Sub, !e, rhs))
    | _ -> continue_ := false
  done;
  !e

and parse_mul st : expr =
  let start = st.start_p in
  let e = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match st.tok with
    | Token.STAR ->
        advance st;
        let rhs = parse_unary st in
        e := mk ~loc:(loc_from st start) (Binop (Mul, !e, rhs))
    | Token.SLASH ->
        advance st;
        let rhs = parse_unary st in
        e := mk ~loc:(loc_from st start) (Binop (Div, !e, rhs))
    | Token.MOD ->
        advance st;
        let rhs = parse_unary st in
        e := mk ~loc:(loc_from st start) (Binop (Mod, !e, rhs))
    | _ -> continue_ := false
  done;
  !e

and parse_unary st : expr =
  let start = st.start_p in
  match st.tok with
  | Token.MINUS ->
      advance st;
      let e = parse_unary st in
      mk ~loc:(loc_from st start) (Unop (Neg, e))
  | Token.NOT ->
      advance st;
      let e = parse_unary st in
      mk ~loc:(loc_from st start) (Unop (Not, e))
  | _ -> parse_app st

and parse_app st : expr =
  let start = st.start_p in
  let e = ref (parse_postfix st) in
  (* A bare constructor in head position takes its argument tuple, as in
     OCaml; constructors in argument position stay unapplied. *)
  (match (!e).desc with
  | Constr (c, []) when starts_atom st.tok ->
      let arg = parse_postfix st in
      let args = match arg.desc with Tuple es -> es | _ -> [ arg ] in
      e := mk ~loc:(loc_from st start) (Constr (c, args))
  | _ -> ());
  while starts_atom st.tok do
    let arg = parse_postfix st in
    e := mk ~loc:(loc_from st start) (App (!e, arg))
  done;
  !e

and starts_atom = function
  | Token.INT _ | Token.IDENT _ | Token.UIDENT _ | Token.TRUE | Token.FALSE
  | Token.LPAREN | Token.LBRACKET | Token.BEGIN ->
      true
  | _ -> false

and parse_postfix st : expr =
  let start = st.start_p in
  let e = ref (parse_atom st) in
  while st.tok = Token.DOTLPAREN do
    advance st;
    let idx = parse_seq st in
    expect st Token.RPAREN;
    let loc = loc_from st start in
    if st.tok = Token.LARROW then begin
      advance st;
      let rhs = parse_or st in
      let loc = loc_from st start in
      let get = mk ~loc (Var (Ident.of_string "Array.set")) in
      e := mk ~loc (App (mk ~loc (App (mk ~loc (App (get, !e)), idx)), rhs))
    end
    else begin
      let get = mk ~loc (Var (Ident.of_string "Array.get")) in
      e := mk ~loc (App (mk ~loc (App (get, !e)), idx))
    end
  done;
  !e

and parse_atom st : expr =
  let start = st.start_p in
  match st.tok with
  | Token.INT n ->
      advance st;
      mk ~loc:(loc_from st start) (Const (Cint n))
  | Token.TRUE ->
      advance st;
      mk ~loc:(loc_from st start) (Const (Cbool true))
  | Token.FALSE ->
      advance st;
      mk ~loc:(loc_from st start) (Const (Cbool false))
  | Token.IDENT x ->
      advance st;
      mk ~loc:(loc_from st start) (Var (Ident.of_string x))
  | Token.UIDENT c ->
      advance st;
      mk ~loc:(loc_from st start) (Constr (c, []))
  | Token.LPAREN -> (
      advance st;
      match st.tok with
      | Token.RPAREN ->
          advance st;
          mk ~loc:(loc_from st start) (Const Cunit)
      | _ ->
          let e = parse_seq st in
          expect st Token.RPAREN;
          e)
  | Token.BEGIN ->
      advance st;
      let e = parse_seq st in
      expect st Token.END;
      e
  | Token.LBRACKET ->
      advance st;
      if st.tok = Token.RBRACKET then begin
        advance st;
        mk ~loc:(loc_from st start) Nil
      end
      else begin
        let es = ref [ parse_expr st ] in
        while st.tok = Token.SEMI do
          advance st;
          es := parse_expr st :: !es
        done;
        expect st Token.RBRACKET;
        let loc = loc_from st start in
        List.fold_left
          (fun acc e -> mk ~loc (Cons (e, acc)))
          (mk ~loc Nil) !es
      end
  | t -> error st (Printf.sprintf "unexpected token '%s'" (Token.to_string t))

(* -- Top level ----------------------------------------------------------- *)

let parse_item st : item =
  let start = st.start_p in
  expect st Token.LET;
  let rec_flag = if st.tok = Token.REC then (advance st; Rec) else Nonrec in
  let name =
    match st.tok with
    | Token.IDENT x ->
        advance st;
        Ident.of_string x
    | Token.UNDERSCORE ->
        advance st;
        Gensym.fresh "main"
    | Token.LPAREN ->
        advance st;
        expect st Token.RPAREN;
        Gensym.fresh "main"
    | t ->
        error st
          (Printf.sprintf "expected a top-level binder, found '%s'"
             (Token.to_string t))
  in
  let params =
    let rec go acc =
      if starts_param st.tok then go (parse_param st :: acc) else List.rev acc
    in
    go []
  in
  expect st Token.EQ;
  let rhs = parse_seq st in
  let rhs =
    if params = [] then rhs else build_fun ~loc:(loc_from st start) params rhs
  in
  if st.tok = Token.SEMISEMI then advance st;
  { item_loc = loc_from st start; rec_flag; name; body = rhs }

(* -- Declarations -------------------------------------------------------- *)

(* A type expression in a constructor declaration: a bare (lowercase)
   type name — [int], [bool], [unit], or an ADT. *)
let parse_tyexpr st : tyexpr =
  match st.tok with
  | Token.IDENT s ->
      let loc = loc_here st in
      advance st;
      { ty_name = s; ty_loc = loc }
  | t ->
      error st
        (Printf.sprintf "expected a type name, found '%s'" (Token.to_string t))

(* [C] or [C of ty * ty * …] *)
let parse_ctor_decl st : ctor_decl =
  let start = st.start_p in
  match st.tok with
  | Token.UIDENT c ->
      advance st;
      let args =
        if st.tok = Token.OF then begin
          advance st;
          let rec go acc =
            let acc = parse_tyexpr st :: acc in
            if st.tok = Token.STAR then begin
              advance st;
              go acc
            end
            else List.rev acc
          in
          go []
        end
        else []
      in
      { c_name = c; c_loc = loc_from st start; c_args = args }
  | t ->
      error st
        (Printf.sprintf "expected a constructor name, found '%s'"
           (Token.to_string t))

(* [type t = C1 of … | C2 | …] *)
let parse_tydecl st : tydecl =
  let start = st.start_p in
  expect st Token.TYPE;
  let t_name, t_name_loc =
    match st.tok with
    | Token.IDENT s ->
        let loc = loc_here st in
        advance st;
        (s, loc)
    | t ->
        error st
          (Printf.sprintf "expected a type name after 'type', found '%s'"
             (Token.to_string t))
  in
  expect st Token.EQ;
  if st.tok = Token.BAR then advance st;
  let first = parse_ctor_decl st in
  let rec go acc =
    if st.tok = Token.BAR then begin
      advance st;
      go (parse_ctor_decl st :: acc)
    end
    else List.rev acc
  in
  let ctors = go [ first ] in
  if st.tok = Token.SEMISEMI then advance st;
  { t_name; t_name_loc; t_ctors = ctors; t_loc = loc_from st start }

(* Measure bodies: an integer term grammar over the equation binders
   with measure applications (and [max]/[min]) by juxtaposition. *)
let rec parse_mterm st : mterm =
  let t = ref (parse_mmul st) in
  let continue_ = ref true in
  while !continue_ do
    match st.tok with
    | Token.PLUS ->
        advance st;
        t := Madd (!t, parse_mmul st)
    | Token.MINUS ->
        advance st;
        t := Msub (!t, parse_mmul st)
    | _ -> continue_ := false
  done;
  !t

and parse_mmul st : mterm =
  let t = ref (parse_munary st) in
  while st.tok = Token.STAR do
    advance st;
    t := Mmul (!t, parse_munary st)
  done;
  !t

and parse_munary st : mterm =
  match st.tok with
  | Token.MINUS ->
      advance st;
      Mneg (parse_munary st)
  | _ -> parse_mapp st

and parse_mapp st : mterm =
  (* [f a b …] — a variable becomes an application head when an atom
     follows it *)
  let a = parse_matom st in
  match a with
  | Mvar (f, loc) when starts_matom st.tok ->
      let rec go acc =
        if starts_matom st.tok then go (parse_matom st :: acc)
        else List.rev acc
      in
      Mcall (f, loc, go [])
  | a -> a

and starts_matom = function
  | Token.INT _ | Token.IDENT _ | Token.LPAREN -> true
  | _ -> false

and parse_matom st : mterm =
  match st.tok with
  | Token.INT n ->
      advance st;
      Mint n
  | Token.IDENT x ->
      let loc = loc_here st in
      advance st;
      Mvar (x, loc)
  | Token.LPAREN ->
      advance st;
      let t = parse_mterm st in
      expect st Token.RPAREN;
      t
  | t ->
      error st
        (Printf.sprintf "unexpected token '%s' in measure body"
           (Token.to_string t))

(* [| C (x, _, r) -> body] *)
let parse_meqn st : meqn =
  let start = st.start_p in
  let eq_ctor, eq_ctor_loc =
    match st.tok with
    | Token.UIDENT c ->
        let loc = loc_here st in
        advance st;
        (c, loc)
    | t ->
        error st
          (Printf.sprintf "expected a constructor in measure equation, found '%s'"
             (Token.to_string t))
  in
  let arg st =
    match st.tok with
    | Token.IDENT x ->
        let loc = loc_here st in
        advance st;
        (Some x, loc)
    | Token.UNDERSCORE ->
        let loc = loc_here st in
        advance st;
        (None, loc)
    | t ->
        error st
          (Printf.sprintf "expected an argument binder, found '%s'"
             (Token.to_string t))
  in
  let args =
    match st.tok with
    | Token.LPAREN ->
        advance st;
        let rec go acc =
          let acc = arg st :: acc in
          if st.tok = Token.COMMA then begin
            advance st;
            go acc
          end
          else List.rev acc
        in
        let args = go [] in
        expect st Token.RPAREN;
        args
    | Token.IDENT _ | Token.UNDERSCORE -> [ arg st ]
    | _ -> []
  in
  expect st Token.ARROW;
  let body = parse_mterm st in
  { eq_ctor; eq_ctor_loc; eq_args = args; eq_body = body; eq_loc = loc_from st start }

(* [measure m : t = | C1 … -> … | …] *)
let parse_measure st : measure_decl =
  let start = st.start_p in
  expect st Token.MEASURE;
  let m_name, m_name_loc =
    match st.tok with
    | Token.IDENT s ->
        let loc = loc_here st in
        advance st;
        (s, loc)
    | t ->
        error st
          (Printf.sprintf "expected a measure name after 'measure', found '%s'"
             (Token.to_string t))
  in
  expect st Token.COLON;
  let m_tycon, m_tycon_loc =
    match st.tok with
    | Token.IDENT s ->
        let loc = loc_here st in
        advance st;
        (s, loc)
    | t ->
        error st
          (Printf.sprintf "expected a type name after ':', found '%s'"
             (Token.to_string t))
  in
  expect st Token.EQ;
  if st.tok = Token.BAR then advance st;
  let first = parse_meqn st in
  let rec go acc =
    if st.tok = Token.BAR then begin
      advance st;
      go (parse_meqn st :: acc)
    end
    else List.rev acc
  in
  let eqns = go [ first ] in
  if st.tok = Token.SEMISEMI then advance st;
  {
    m_name;
    m_name_loc;
    m_tycon;
    m_tycon_loc;
    m_eqns = eqns;
    m_loc = loc_from st start;
  }

let parse_program st : program * decls =
  let rec go items types measures =
    match st.tok with
    | Token.EOF ->
        ( List.rev items,
          { types = List.rev types; measures = List.rev measures } )
    | Token.LET -> go (parse_item st :: items) types measures
    | Token.TYPE -> go items (parse_tydecl st :: types) measures
    | Token.MEASURE -> go items types (parse_measure st :: measures)
    | t ->
        error st
          (Printf.sprintf
             "expected a top-level 'let', 'type' or 'measure', found '%s'"
             (Token.to_string t))
  in
  go [] [] []

(* -- Entry points ---------------------------------------------------------- *)

let parse_lexbuf ~file lexbuf =
  let st = init file lexbuf in
  try parse_program st with
  | Lexer.Error (msg, pos) ->
      raise (Error (msg, Loc.of_lexing pos pos))

let parse_string ?(file = "<string>") s = parse_lexbuf ~file (Lexing.from_string s)

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_lexbuf ~file:path (Lexing.from_channel ic))

let program_of_string ?(file = "<string>") s =
  fst (parse_string ~file s)

let program_of_file path = fst (parse_file path)

let expr_of_string ?(file = "<string>") s =
  let st = init file (Lexing.from_string s) in
  let e = parse_seq st in
  (match st.tok with
  | Token.EOF -> ()
  | t -> error st (Printf.sprintf "trailing token '%s'" (Token.to_string t)));
  e
