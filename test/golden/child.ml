(* Helpers shared by the golden generator and the history check. *)

module Pipeline = Liquid_driver.Pipeline
module Json = Liquid_analysis.Json

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
