(** ML-level signatures of the NanoML primitives.

    The refinement-level signatures of the same primitives live in
    [Liquid_infer.Prims]; this module only provides what Hindley–Milner
    inference needs. *)

open Liquid_common
open Mltype

let tv k = Tvar (ref (Rigid k))

let arrow args result = List.fold_right (fun a acc -> Tarrow (a, acc)) args result

let signatures : (string * scheme) list =
  [
    (* Arrays *)
    ("Array.make", { nvars = 1; body = arrow [ Tint; tv 0 ] (Tarray (tv 0)) });
    ("Array.length", { nvars = 1; body = arrow [ Tarray (tv 0) ] Tint });
    ("Array.get", { nvars = 1; body = arrow [ Tarray (tv 0); Tint ] (tv 0) });
    ( "Array.set",
      { nvars = 1; body = arrow [ Tarray (tv 0); Tint; tv 0 ] Tunit } );
    (* Integer helpers with useful refinements (see Liquid_infer.Prims) *)
    ("min", { nvars = 0; body = arrow [ Tint; Tint ] Tint });
    ("max", { nvars = 0; body = arrow [ Tint; Tint ] Tint });
    ("abs", { nvars = 0; body = arrow [ Tint ] Tint });
    (* Output (no-ops for verification; effects for the interpreter) *)
    ("print_int", { nvars = 0; body = arrow [ Tint ] Tunit });
    ("print_newline", { nvars = 0; body = arrow [ Tunit ] Tunit });
    (* List helpers *)
    ("List.length", { nvars = 1; body = arrow [ Tlist (tv 0) ] Tint });
  ]

let env : scheme Ident.Map.t =
  List.fold_left
    (fun m (name, sch) -> Ident.Map.add (Ident.of_string name) sch m)
    Ident.Map.empty signatures
