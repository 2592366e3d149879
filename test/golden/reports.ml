(* Print the reports of the failing inputs whose reports carry SMT
   models: the T1 and E1 mutants (each with explanations and in gradual
   mode) and the A1 qualifier ablations (with explanations).  Each
   report is the [--format json] object without its [stats], one
   top-level field per line.

   Every input is verified in a fresh forked child: SMT query counts
   and models depend on the solver's process-wide state, so verifying
   one input after another would make each report depend on the ones
   before it. *)

module Pipeline = Liquid_driver.Pipeline
module Programs = Liquid_suite.Programs
module Extended = Liquid_suite.Extended
module Runner = Liquid_suite.Runner
module Qualifier = Liquid_infer.Qualifier
module Json = Liquid_analysis.Json

(* Solve workers as the suite runner counts them ([DSOLVE_JOBS]): the
   reports must not depend on it. *)
let base = { Pipeline.default with jobs = Runner.default_jobs () }

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
          base with
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
          { base with mine = false },
          [ `Explain ] ))
      [ "tower"; "simplex"; "gauss"; "bcopy" ]

let with_mode options = function
  | `Explain -> ("explain", { options with Pipeline.explain = true; explain_limit = 64 })
  | `Gradual -> ("gradual", { options with Pipeline.gradual = true })

(* The report's top-level fields except [stats], one per line. *)
let render ~file (r : Pipeline.report) =
  match Pipeline.json_of_report ~file r with
  | Json.Obj fields ->
      String.concat ""
        (List.filter_map
           (fun (k, v) ->
             if k = "stats" then None
             else Some (Fmt.str "%s: %s\n" (Json.to_string (Json.String k)) (Json.to_string v)))
           fields)
  | j -> Json.to_string j ^ "\n"

(* [f ()] in a forked child, its string result read back over a pipe. *)
let isolated (f : unit -> string) : string =
  let r, w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | s -> output_string oc s
      | exception e -> output_string oc ("error: " ^ Printexc.to_string e ^ "\n"));
      flush_all ();
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      s

let () =
  List.iter
    (fun (file, source, options, modes) ->
      List.iter
        (fun mode ->
          let label, options = with_mode options mode in
          Printf.printf "== %s %s\n%s%!" file label
            (isolated (fun () ->
                 render ~file (Pipeline.verify_string ~options ~name:file source))))
        modes)
    inputs
