(** perf: the repository benchmark.  Run from the repository root, which
    holds [BENCHMARK.json], the declaration of every workload and metric.

    {v
    perf --workload W --seed N --seconds S --trace 0|1 [--trace-file F]
         one workload in this process; the last line of output is one
         JSON object with the end-to-end metrics (--trace 0) or the
         per-layer metrics of one traced pass (--trace 1)
    perf run   [--seed N] [--seconds S] [--out F]   every workload, untraced
    perf trace [--seed N] [--out F] [--trace-file F] every workload, traced
    perf compare OLD.json NEW.json   end-to-end rows against the bounds
    perf smoke                       one short traced pass per workload
    v}

    [run] and [trace] start one child process per workload. *)

module Json = Liquid_analysis.Json
module W = Workloads

let now = Unix.gettimeofday

(* -- BENCHMARK.json ------------------------------------------------------- *)

type metric = { name : string; unit : string; higher_better : bool; bound : float }

type spec = { run_seconds : int; e2e : metric list; layers : metric list }

let field k = function
  | Json.Obj fs -> ( try List.assoc k fs with Not_found -> failwith ("no field " ^ k))
  | _ -> failwith ("expected an object with a field " ^ k)

let to_float = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> failwith "expected a number"

let to_string = function Json.String s -> s | _ -> failwith "expected a string"
let to_list = function Json.List l -> l | _ -> failwith "expected a list"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_spec () =
  let j = Json.of_string (read_file "BENCHMARK.json") in
  let metric m =
    {
      name = to_string (field "name" m);
      unit = to_string (field "unit" m);
      higher_better = to_string (field "better" m) = "higher";
      bound = (try to_float (field "bound" m) with Failure _ -> 0.0);
    }
  in
  {
    run_seconds = int_of_float (to_float (field "run_seconds" j));
    e2e = List.map metric (to_list (field "end_to_end" j));
    layers = List.map metric (to_list (field "per_layer" j));
  }

(* A metric value with all its digits. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* -- One workload ----------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* The spans of a traced pass: one per request, with its layers beneath
   it (in-process requests) or its class (daemon requests). *)
let record_spans (p : W.pass) =
  Layers.clear ();
  List.iter
    (fun (s : W.sample) ->
      match s.layers with
      | Some l -> Layers.record ~ts:s.start ~dur:s.latency "request" l
      | None ->
          Layers.record ~ts:s.start ~dur:s.latency "server.request" Layers.empty
            ~args:[ ("server." ^ s.cls, 1.0) ])
    p.samples

(* The per-layer metrics of a traced pass, from its spans. *)
let layer_values ~spec (p : W.pass) =
  let tbl = Layers.layer_metrics () in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) p.server;
  List.map
    (fun m -> (m.name, Option.value ~default:0.0 (Hashtbl.find_opt tbl m.name)))
    spec.layers

(* Passes and set-ups per untraced run.  Each pass makes one set-up;
   more are made until they number [min_setups] and add up to a tenth of
   the run, or number [max_setups], so that a set-up of a few
   milliseconds is still timed often enough for a steady median. *)
let min_passes = 2
let min_setups = 5
let max_setups = 25

(** Run [wl]: [round (seconds / nominal)] passes (at least
    [min_passes]), or one traced pass.  Each pass runs with its own
    set-up in a child of this process, so every pass starts from the
    same state. *)
let run_workload ?trace_file ~spec ~(wl : W.t) ~seed ~seconds ~trace ~size () =
  let dir = Printf.sprintf "_perf/%s-%d" wl.name (Unix.getpid ()) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      W.rm_rf dir;
      try Unix.rmdir "_perf" with Unix.Unix_error _ -> ())
    (fun () ->
      wl.references ~seed size;
      let in_child f =
        W.isolated (fun () ->
            let t0 = now () in
            let i = wl.setup ~seed ~dir size in
            let setup = now () -. t0 in
            Fun.protect ~finally:i.W.teardown (fun () -> (setup, f i)))
      in
      let setups, passes, values =
        if trace then begin
          let setup, pass = in_child (fun i -> i.W.trace ()) in
          record_spans pass;
          Fmt.pr "%a" Layers.pp_self_times ();
          Option.iter
            (fun f ->
              let oc = open_out_bin f in
              output_string oc (Layers.chrome_json ());
              close_out oc)
            trace_file;
          ([ setup ], [ pass ], layer_values ~spec pass)
        end
        else begin
          let n =
            max min_passes (int_of_float (Float.round (float_of_int seconds /. wl.nominal_pass_s)))
          in
          let runs = List.init n (fun _ -> in_child (fun i -> i.W.run ())) in
          let rec more setups =
            let k = List.length setups in
            if
              k >= max_setups
              || (k >= min_setups
                 && List.fold_left ( +. ) 0.0 setups >= 0.1 *. float_of_int seconds)
            then setups
            else more (fst (in_child ignore) :: setups)
          in
          let passes = List.map snd runs in
          let setups = more (List.map fst runs) in
          (* Every pass sends the same requests in the same order.  The
             machine's own noise comes in bursts of a few seconds that
             only ever add time, so a request's latency is its best over
             the run's passes, and the pass time is the fastest pass's. *)
          let first = List.hd passes in
          let lat_ms =
            List.fold_left
              (fun best (p : W.pass) ->
                List.map2 (fun b (s : W.sample) -> Float.min b (1000.0 *. s.latency)) best p.samples)
              (List.map (fun _ -> infinity) first.samples)
              passes
          in
          let pass_s = List.fold_left (fun m (p : W.pass) -> Float.min m p.wall) infinity passes in
          Fmt.pr "latency samples: %d, each the best of %d passes@." (List.length lat_ms)
            (List.length passes);
          ( setups,
            passes,
            [
              ("setup_s", W.median setups);
              ("pass_s", pass_s);
              ("latency_p50_ms", W.percentile 0.5 lat_ms);
              ("latency_p95_ms", W.percentile 0.95 lat_ms);
              ("throughput_rps", float_of_int (List.length first.samples) /. pass_s);
              ( "work_units",
                float_of_int
                  (List.fold_left (fun a (s : W.sample) -> a + s.work) 0 first.samples) );
              ( "peak_rss_mb",
                W.median (List.map (fun (p : W.pass) -> float_of_int p.rss_kb) passes) /. 1024.0 );
            ] )
        end
      in
      (* No pass may benefit from an earlier one: each request costs the
         same work units in every pass. *)
      let first = List.hd passes in
      let drifted =
        List.fold_left
          (fun acc (p : W.pass) ->
            List.fold_left2
              (fun acc (a : W.sample) (b : W.sample) -> if a.work <> b.work then acc + 1 else acc)
              acc first.samples p.samples)
          0 passes
      in
      if drifted > 0 then
        W.fail "%d requests cost different work units in different passes" drifted;
      let samples = List.concat_map (fun (p : W.pass) -> p.samples) passes in
      let failed =
        List.length (List.filter (fun (s : W.sample) -> not s.ok) samples)
        + drifted
        + List.fold_left (fun a (p : W.pass) -> a + p.inconsistent) 0 passes
      in
      Fmt.pr "%s: seed %d, %d pass%s of %d requests, %d set-ups, %d failed@." wl.name seed
        (List.length passes) (if List.length passes = 1 then "" else "es")
        (List.length first.samples) (List.length setups) failed;
      { correct = failed = 0; attempted = List.length samples; failed; values })

let result_json ~metrics r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            let v =
              match List.assoc_opt m.name r.values with
              | Some v when Float.is_finite v -> v
              | Some _ -> failwith (m.name ^ " is not a finite number")
              | None -> failwith (m.name ^ " was not measured")
            in
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num v) m.unit)
          metrics))

(* -- All workloads, one child process each -------------------------------- *)

let run_children ~spec ~seed ~seconds ~trace ~trace_file ~out =
  let exe = Sys.executable_name in
  let rows =
    List.map
      (fun (wl : W.t) ->
        let args =
          [ exe; "--workload"; wl.name; "--seed"; string_of_int seed; "--seconds";
            string_of_int seconds; "--trace"; (if trace then "1" else "0") ]
          @ (match trace_file with
            | Some f ->
                let file = Printf.sprintf "%s.%s.json" (Filename.remove_extension f) wl.name in
                [ "--trace-file"; file ]
            | None -> [])
        in
        flush_all ();
        let ic = Unix.open_process_args_in exe (Array.of_list args) in
        let last = ref "" in
        (* The last line is the result, kept verbatim for [--out]. *)
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> (wl.name, !last)
        | _ -> failwith (wl.name ^ ": the workload process failed"))
      W.all
  in
  let results = List.map (fun (n, line) -> (n, Json.of_string line)) rows in
  let metrics = if trace then spec.layers else spec.e2e in
  Fmt.pr "@.%-22s %-8s" "metric" "unit";
  List.iter (fun (n, _) -> Fmt.pr " %14s" n) rows;
  Fmt.pr "@.";
  let row name unit cell =
    Fmt.pr "%-22s %-8s" name unit;
    List.iter (fun (_, j) -> Fmt.pr " %14s" (cell j)) results;
    Fmt.pr "@."
  in
  List.iter
    (fun m ->
      row m.name m.unit (fun j ->
          Printf.sprintf "%.4g" (to_float (field "value" (field m.name (field "metrics" j))))))
    metrics;
  row "failed/attempted" "" (fun j ->
      Printf.sprintf "%.0f/%.0f" (to_float (field "failed" j)) (to_float (field "attempted" j)));
  Fmt.pr "@.";
  Option.iter
    (fun f ->
      let oc = open_out_bin f in
      Printf.fprintf oc "{\"seed\": %d, \"trace\": %b, \"workloads\": {%s}}\n" seed trace
        (String.concat ",\n" (List.map (fun (n, line) -> Printf.sprintf "%S: %s" n line) rows));
      close_out oc)
    out;
  if List.for_all (fun (_, j) -> field "correct" j = Json.Bool true) results then 0 else 1

(* -- compare ------------------------------------------------------------------ *)

(* Workload and metric pairs that moved by more than their bound between
   repeated runs of the same code on the machine the bounds were set on
   (README, Baseline).  Past its bound such a pair reads "unresolved",
   not "REGRESSION": the change cannot be told apart from the machine. *)
let unresolved = [ ("t1-cold", "setup_s"); ("t1-cold", "latency_p50_ms") ]

let compare_files ~spec old_f new_f =
  let load f = field "workloads" (Json.of_string (read_file f)) in
  let olds = load old_f and news = load new_f in
  let value j m =
    match field "metrics" j with
    | Json.Obj ms -> Option.map (fun v -> to_float (field "value" v)) (List.assoc_opt m.name ms)
    | _ -> None
  in
  let regressions = ref 0 in
  let workloads = match news with Json.Obj fs -> fs | _ -> [] in
  Fmt.pr "%-12s %-22s %14s %14s %9s %7s  %s@." "workload" "metric" "old" "new" "change" "bound"
    "verdict";
  List.iter
    (fun (w, nj) ->
      match olds with
      | Json.Obj ofs when List.mem_assoc w ofs ->
          let oj = List.assoc w ofs in
          let row ~bounded m =
            match (value oj m, value nj m) with
            | Some o, Some n ->
                let change =
                  if o = n then 0.0 else if o = 0.0 then infinity else (n -. o) /. Float.abs o
                in
                let worse = if m.higher_better then -.change else change in
                let verdict =
                  if not bounded then "info"
                  else if worse <= m.bound then "ok"
                  else if List.mem (w, m.name) unresolved then "unresolved"
                  else (incr regressions; "REGRESSION")
                in
                Fmt.pr "%-12s %-22s %14.6g %14.6g %+8.1f%% %7s  %s@." w m.name o n
                  (100.0 *. change)
                  (if bounded then Printf.sprintf "%.2f" m.bound else "")
                  verdict
            | _ -> ()
          in
          List.iter (row ~bounded:true) spec.e2e;
          let frac j =
            to_float (field "failed" j) /. Float.max 1.0 (to_float (field "attempted" j))
          in
          if frac nj > frac oj then begin
            incr regressions;
            Fmt.pr "%-12s %-22s %14.6g %14.6g %9s %7s  REGRESSION@." w "failed/attempted"
              (frac oj) (frac nj) "" ""
          end;
          List.iter (row ~bounded:false) spec.layers
      | _ -> Fmt.pr "%-12s (absent from %s)@." w old_f)
    workloads;
  if !regressions > 0 then begin
    Fmt.pr "%d regression%s@." !regressions (if !regressions = 1 then "" else "s");
    1
  end
  else 0

(* -- CLI ------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perf --workload W --seed N --seconds S --trace 0|1 [--trace-file F]\n\
    \       perf run|trace [--seed N] [--seconds S] [--out F] [--trace-file F]\n\
    \       perf compare OLD.json NEW.json\n\
    \       perf smoke";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let args = match args with "--" :: rest -> rest | a -> a in
  let rec flags acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let flag fs k = List.assoc_opt k fs in
  let int_flag fs k ~default =
    match flag fs k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let spec =
    try load_spec ()
    with e ->
      prerr_endline ("perf: cannot read BENCHMARK.json: " ^ Printexc.to_string e);
      exit 2
  in
  let code =
    match args with
    | ("run" | "trace") as cmd :: rest ->
        let fs = flags [] rest in
        run_children ~spec ~seed:(int_flag fs "--seed" ~default:1)
          ~seconds:(int_flag fs "--seconds" ~default:spec.run_seconds)
          ~trace:(cmd = "trace") ~trace_file:(flag fs "--trace-file") ~out:(flag fs "--out")
    | [ "compare"; old_f; new_f ] -> compare_files ~spec old_f new_f
    | [ "smoke" ] ->
        let t0 = now () in
        let results =
          List.map
            (fun (wl : W.t) ->
              let r =
                run_workload ~spec ~wl ~seed:1 ~seconds:0 ~trace:true ~size:Corpus.Smoke ()
              in
              Fmt.pr "%s: %d/%d requests failed@." wl.name r.failed r.attempted;
              r.correct)
            W.all
        in
        let ok = List.for_all Fun.id results in
        Fmt.pr "smoke: %s in %.1f s@." (if ok then "ok" else "FAILED") (now () -. t0);
        if ok then 0 else 1
    | _ ->
        let fs = flags [] args in
        let wl =
          match flag fs "--workload" with
          | Some n -> (
              match List.find_opt (fun (w : W.t) -> w.name = n) W.all with
              | Some w -> w
              | None -> usage ())
          | None -> usage ()
        in
        let trace =
          match flag fs "--trace" with
          | Some "1" -> true
          | Some "0" | None -> false
          | Some _ -> usage ()
        in
        let r =
          run_workload ?trace_file:(flag fs "--trace-file") ~spec ~wl
            ~seed:(int_flag fs "--seed" ~default:1)
            ~seconds:(int_flag fs "--seconds" ~default:spec.run_seconds)
            ~trace ~size:Corpus.Full ()
        in
        print_endline (result_json ~metrics:(if trace then spec.layers else spec.e2e) r);
        0
  in
  exit code
