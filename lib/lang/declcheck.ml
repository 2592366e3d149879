(** Semantic validation of [type] and [measure] declarations.

    The parser only enforces syntax; every name-level property of a
    declaration unit is checked here and reported as a structured
    diagnostic with a precise span — never an exception — so drivers can
    surface all problems at once.  The checks also establish exactly the
    invariants the measure table ({!Liquid_logic.Measure}) and the
    constraint generator rely on:

    - type names are unique and distinct from the built-in types;
    - constructor names are unique across the unit and their argument
      types exist;
    - a measure targets a declared ADT, covers {e every} constructor
      exactly once (totality is what makes the derived [m v >= 0]
      environment facts sound), binds the right number of arguments,
      and its equations are structurally recursive: measure
      applications only to direct constructor arguments of the measured
      (or another measured) datatype. *)

open Liquid_common
open Ast

type diag = { code : string; message : string; loc : Loc.t }

(* Base types usable in constructor arguments. *)
let base_types = [ "int"; "bool"; "unit" ]

(* Type names that exist structurally in NanoML and cannot be redefined
   or measured through declarations. *)
let reserved_types = base_types @ [ "list"; "array" ]

let builtin_measures = [ "llen"; "len" ]

type argkind = Kint | Kother | Kadt of string | Kunknown

let check (decls : decls) : diag list =
  let diags = ref [] in
  let err code loc fmt =
    Fmt.kstr (fun message -> diags := { code; message; loc } :: !diags) fmt
  in
  (* -- types ------------------------------------------------------------ *)
  let types : (string, tydecl) Hashtbl.t = Hashtbl.create 8 in
  let ctors : (string, tydecl * ctor_decl) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (td : tydecl) ->
      if List.mem td.t_name reserved_types then
        err "D001" td.t_name_loc "type name '%s' is reserved" td.t_name
      else if Hashtbl.mem types td.t_name then
        err "D001" td.t_name_loc "duplicate type declaration '%s'" td.t_name
      else Hashtbl.add types td.t_name td;
      List.iter
        (fun (c : ctor_decl) ->
          (match Hashtbl.find_opt ctors c.c_name with
          | Some (other, _) ->
              err "D003" c.c_loc
                "duplicate constructor '%s' (already declared by type '%s')"
                c.c_name other.t_name
          | None -> Hashtbl.add ctors c.c_name (td, c));
          List.iter
            (fun (ty : tyexpr) ->
              if
                not
                  (List.mem ty.ty_name base_types
                  || ty.ty_name = td.t_name
                  || List.exists (fun (d : tydecl) -> d.t_name = ty.ty_name)
                       decls.types)
              then
                err "D002" ty.ty_loc
                  "unknown type '%s' in constructor '%s'" ty.ty_name c.c_name)
            c.c_args)
        td.t_ctors)
    decls.types;
  (* -- measures --------------------------------------------------------- *)
  (* measure name -> measured type, for the whole unit (forward
     references between measures are allowed) *)
  let measure_tycons : (string, string) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b, t) -> Hashtbl.add measure_tycons b t)
    [ ("llen", "list"); ("len", "array") ];
  List.iter
    (fun (m : measure_decl) ->
      if Hashtbl.mem measure_tycons m.m_name then ()
      else Hashtbl.add measure_tycons m.m_name m.m_tycon)
    decls.measures;
  let seen_measures : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (m : measure_decl) ->
      if List.mem m.m_name builtin_measures || List.mem m.m_name [ "max"; "min" ]
      then
        err "D011" m.m_name_loc "measure name '%s' is reserved" m.m_name
      else if Hashtbl.mem seen_measures m.m_name then
        err "D011" m.m_name_loc "duplicate measure '%s'" m.m_name
      else Hashtbl.add seen_measures m.m_name ();
      let td = Hashtbl.find_opt types m.m_tycon in
      (match td with
      | None ->
          err "D004" m.m_tycon_loc
            "measure '%s' is over '%s', which is not a declared datatype"
            m.m_name m.m_tycon
      | Some _ -> ());
      (* equations *)
      let seen_eqns : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (eq : meqn) ->
          let cd =
            match td with
            | None -> None
            | Some td ->
                List.find_opt
                  (fun (c : ctor_decl) -> c.c_name = eq.eq_ctor)
                  td.t_ctors
          in
          (match (td, cd) with
          | Some td, None ->
              err "D005" eq.eq_ctor_loc
                "unknown constructor '%s' in measure '%s' ('%s' has no such \
                 constructor)"
                eq.eq_ctor m.m_name td.t_name
          | _ -> ());
          if Hashtbl.mem seen_eqns eq.eq_ctor then
            err "D006" eq.eq_ctor_loc
              "duplicate equation for constructor '%s' in measure '%s'"
              eq.eq_ctor m.m_name
          else Hashtbl.add seen_eqns eq.eq_ctor ();
          (* binder environment for the body *)
          let kinds : (string, argkind) Hashtbl.t = Hashtbl.create 8 in
          (match cd with
          | Some cd ->
              if List.length eq.eq_args <> List.length cd.c_args then
                err "D008" eq.eq_loc
                  "constructor '%s' has %d argument(s) but the equation binds \
                   %d"
                  eq.eq_ctor (List.length cd.c_args) (List.length eq.eq_args)
              else
                List.iter2
                  (fun (name, _) (ty : tyexpr) ->
                    match name with
                    | None -> ()
                    | Some x ->
                        let k =
                          if ty.ty_name = "int" then Kint
                          else if Hashtbl.mem types ty.ty_name then
                            Kadt ty.ty_name
                          else if List.mem ty.ty_name base_types then Kother
                          else Kunknown
                        in
                        Hashtbl.replace kinds x k)
                  eq.eq_args cd.c_args
          | None ->
              (* constructor unknown: treat binders as unknown so the body
                 check does not cascade *)
              List.iter
                (fun (name, _) ->
                  match name with
                  | None -> ()
                  | Some x -> Hashtbl.replace kinds x Kunknown)
                eq.eq_args);
          (* body: an integer term; measure applications only to direct
             constructor arguments of a measured datatype *)
          let rec go (t : mterm) =
            match t with
            | Mint _ -> ()
            | Mvar (x, loc) -> (
                match Hashtbl.find_opt kinds x with
                | None ->
                    err "D009" loc
                      "unknown variable '%s' in measure body (not an argument \
                       of '%s')"
                      x eq.eq_ctor
                | Some Kint | Some Kunknown -> ()
                | Some (Kadt ty) ->
                    err "D013" loc
                      "argument '%s' has type '%s'; apply a measure to use it \
                       in an integer body"
                      x ty
                | Some Kother ->
                    err "D013" loc
                      "argument '%s' cannot appear in an integer measure body"
                      x)
            | Mcall (f, loc, args) when f = "max" || f = "min" ->
                if List.length args <> 2 then
                  err "D012" loc "'%s' expects 2 arguments, got %d" f
                    (List.length args)
                else List.iter go args
            | Mcall (f, loc, args) -> (
                match Hashtbl.find_opt measure_tycons f with
                | None -> err "D011" loc "unknown measure '%s'" f
                | Some f_ty -> (
                    match args with
                    | [ Mvar (x, xloc) ] -> (
                        match Hashtbl.find_opt kinds x with
                        | None ->
                            err "D009" xloc
                              "unknown variable '%s' in measure body (not an \
                               argument of '%s')"
                              x eq.eq_ctor
                        | Some (Kadt ty) ->
                            if ty <> f_ty then
                              err "D010" xloc
                                "measure '%s' is over '%s' but '%s' has type \
                                 '%s'"
                                f f_ty x ty
                        | Some Kunknown -> ()
                        | Some _ ->
                            err "D010" xloc
                              "measure '%s' must be applied to a constructor \
                               argument of type '%s'"
                              f f_ty)
                    | _ ->
                        err "D010" loc
                          "non-structural recursion: measure '%s' must be \
                           applied to a direct constructor argument"
                          f))
            | Mneg a -> go a
            | Madd (a, b) | Msub (a, b) | Mmul (a, b) ->
                go a;
                go b
          in
          go eq.eq_body)
        m.m_eqns;
      (* totality: every constructor needs an equation — the derived
         non-negativity facts are only sound for total measures *)
      match td with
      | Some td ->
          List.iter
            (fun (c : ctor_decl) ->
              if
                not
                  (List.exists (fun (e : meqn) -> e.eq_ctor = c.c_name) m.m_eqns)
              then
                err "D007" m.m_loc
                  "measure '%s' is missing an equation for constructor '%s'"
                  m.m_name c.c_name)
            td.t_ctors
      | None -> ())
    decls.measures;
  List.rev !diags
