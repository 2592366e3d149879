(** ML-level signatures of the NanoML primitives (the refinement-level
    signatures live in [Liquid_infer.Prims]). *)

open Liquid_common

val signatures : (string * Mltype.scheme) list
val env : Mltype.scheme Ident.Map.t
