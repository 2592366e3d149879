(** Elaboration of surface [measure] declarations into the measure table
    ({!Liquid_logic.Measure}).

    Assumes the declaration unit has passed {!Liquid_lang.Declcheck} —
    every equation is total, arity-correct, and structurally recursive —
    so elaboration is a straight syntax-directed translation: equation
    binders become argument positions, [max]/[min] become the table's
    case-split connectives, and measure applications become [Capp]
    references resolved at axiom-instantiation time. *)

open Liquid_logic
open Liquid_lang

(* Translate one equation body, binders resolved to argument positions;
   raises [Invalid_argument] on bodies {!Liquid_lang.Declcheck}
   rejects. *)
let body_of_mterm (argnames : string option list) (t : Ast.mterm) :
    Measure.body =
  let index x =
    let rec go i = function
      | [] -> invalid_arg ("Measures.load: unbound measure variable " ^ x)
      | Some y :: _ when String.equal x y -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 argnames
  in
  let rec go (t : Ast.mterm) : Measure.body =
    match t with
    | Ast.Mint n -> Measure.Cint n
    | Ast.Mvar (x, _) -> Measure.Carg (index x)
    | Ast.Mcall ("max", _, [ a; b ]) -> Measure.Cmax (go a, go b)
    | Ast.Mcall ("min", _, [ a; b ]) -> Measure.Cmin (go a, go b)
    | Ast.Mcall (f, _, [ Ast.Mvar (x, _) ]) -> Measure.Capp (f, index x)
    | Ast.Mcall (f, _, _) ->
        invalid_arg ("Measures.load: non-structural application of " ^ f)
    | Ast.Mneg a -> Measure.Cneg (go a)
    | Ast.Madd (a, b) -> Measure.Cadd (go a, go b)
    | Ast.Msub (a, b) -> Measure.Csub (go a, go b)
    | Ast.Mmul (a, b) -> Measure.Cmul (go a, go b)
  in
  go t

let eqn_of_meqn (eq : Ast.meqn) : Measure.eqn =
  let argnames = List.map fst eq.Ast.eq_args in
  {
    Measure.ctor = eq.Ast.eq_ctor;
    arity = List.length eq.Ast.eq_args;
    body = body_of_mterm argnames eq.Ast.eq_body;
  }

(** Reset the table to the built-ins and register every declared
    measure, in source order (registration order is fact order
    everywhere downstream, so this is what keeps runs deterministic).
    @raise Invalid_argument on declarations that did not pass
    {!Liquid_lang.Declcheck}. *)
let load (decls : Ast.decls) : unit =
  Measure.reset ();
  List.iter
    (fun (m : Ast.measure_decl) ->
      ignore
        (Measure.register ~name:m.Ast.m_name ~tycon:m.Ast.m_tycon
           (List.map eqn_of_meqn m.Ast.m_eqns)))
    decls.Ast.measures

(** Stable digest of the declaration unit's measure and type content,
    for cache keys: any change to a constructor layout or measure body
    changes the digest.  [""] for declaration-free programs, so their
    fingerprints are unchanged from earlier versions. *)
let fingerprint (decls : Ast.decls) : string =
  if decls.Ast.types = [] && decls.Ast.measures = [] then ""
  else begin
    let buf = Buffer.create 256 in
    List.iter
      (fun (td : Ast.tydecl) ->
        Buffer.add_string buf ("type " ^ td.Ast.t_name);
        List.iter
          (fun (c : Ast.ctor_decl) ->
            Buffer.add_string buf ("|" ^ c.Ast.c_name);
            List.iter
              (fun (a : Ast.tyexpr) ->
                Buffer.add_string buf (" " ^ a.Ast.ty_name))
              c.Ast.c_args)
          td.Ast.t_ctors;
        Buffer.add_char buf '\n')
      decls.Ast.types;
    List.iter
      (fun (m : Ast.measure_decl) ->
        Buffer.add_string buf
          (Fmt.str "measure %s : %s =@%a\n" m.Ast.m_name m.Ast.m_tycon
             (Fmt.list ~sep:(Fmt.any ";") Measure.pp_eqn)
             (List.map eqn_of_meqn m.Ast.m_eqns)))
      decls.Ast.measures;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  end
