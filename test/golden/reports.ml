(* Print the reports of the failing inputs whose reports carry SMT
   models: the T1 and E1 mutants (each with explanations and in gradual
   mode) and the A1 qualifier ablations (with explanations).  Each
   report is the [--format json] object without its [stats], one
   top-level field per line.

   Every input is verified in a fresh forked child, which keeps each
   input on a cold result cache.  The cache is process-wide, and its
   hit counters are the one part of a run that depends on what the
   process verified before (history.ml checks the rest). *)

module Pipeline = Liquid_driver.Pipeline
module Programs = Liquid_suite.Programs
module Extended = Liquid_suite.Extended
module Qualifier = Liquid_infer.Qualifier

(* An input: its file name, source, options before the mode is set, and
   its modes.  T1 mutants verify with their qualifiers and no mining, E1
   mutants mine constants, ablations drop the extra qualifiers. *)
let inputs =
  List.map
    (fun (mine, (m : Programs.mutant)) ->
      let b = Programs.mutate m in
      let file = b.Programs.name ^ "-mutant.ml" in
      ( file,
        b.Programs.source,
        {
          Pipeline.default with
          Pipeline.quals =
            Qualifier.defaults
            @ Qualifier.parse_string ~file b.Programs.extra_qualifiers;
          mine;
        },
        [ `Explain; `Gradual ] ))
    (List.map (fun m -> (false, m)) Programs.mutants
    @ List.map (fun m -> (true, m)) Extended.mutants)
  @ List.map
      (fun name ->
        ( name ^ "-ablated.ml",
          (Programs.find name).Programs.source,
          { Pipeline.default with mine = false },
          [ `Explain ] ))
      [ "tower"; "simplex"; "gauss"; "bcopy" ]

let with_mode options = function
  | `Explain -> ("explain", { options with Pipeline.explain = true; explain_limit = 64 })
  | `Gradual -> ("gradual", { options with Pipeline.gradual = true })

let () =
  List.iter
    (fun (file, source, options, modes) ->
      List.iter
        (fun mode ->
          let label, options = with_mode options mode in
          Printf.printf "== %s %s\n%s%!" file label
            (Child.isolated (fun () ->
                 Child.render ~file
                   (Pipeline.verify_string ~options ~name:file source))))
        modes)
    inputs
