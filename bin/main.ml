(* sjoin — CLI driver for the paper-reproduction experiments.

   Usage examples:
     sjoin fig8                      # Figure 8 at default scale
     sjoin fig9 --runs 50 --len 5000 # paper scale
     sjoin all                       # everything (EXPERIMENTS.md source)
*)

open Cmdliner
open Ssj_workload

(* An integer option with a lower bound.  A value below it is a usage
   error (exit 124) naming the option, instead of a crash or an empty
   result deep inside a figure. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo -> Error (`Msg (Printf.sprintf "%d is less than %d" n lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let positive = int_at_least 1
let non_negative = int_at_least 0

let opts_term =
  let runs =
    Arg.(value & opt positive Experiments.default.Experiments.runs
         & info [ "runs" ] ~doc:"Independent runs per configuration.")
  in
  let length =
    Arg.(value & opt positive Experiments.default.Experiments.length
         & info [ "len" ] ~doc:"Stream length (tuples per stream).")
  in
  let seed =
    Arg.(value & opt int Experiments.default.Experiments.seed
         & info [ "seed" ] ~doc:"Base random seed.")
  in
  let capacity =
    Arg.(value & opt non_negative Experiments.default.Experiments.capacity
         & info [ "cache" ] ~doc:"Cache size for fixed-size comparisons.")
  in
  let fe_runs =
    Arg.(value & opt positive Experiments.default.Experiments.fe_runs
         & info [ "fe-runs" ] ~doc:"Runs for FlowExpect blocks.")
  in
  let fe_length =
    Arg.(value & opt positive Experiments.default.Experiments.fe_length
         & info [ "fe-len" ] ~doc:"Stream length for FlowExpect blocks.")
  in
  let fe_lookahead =
    Arg.(value & opt positive Experiments.default.Experiments.fe_lookahead
         & info [ "fe-lookahead" ] ~doc:"FlowExpect look-ahead distance.")
  in
  let build runs length seed capacity fe_runs fe_length fe_lookahead =
    {
      Experiments.default with
      Experiments.runs;
      length;
      seed;
      capacity;
      fe_runs;
      fe_length;
      fe_lookahead;
    }
  in
  Term.(
    const build $ runs $ length $ seed $ capacity $ fe_runs $ fe_length
    $ fe_lookahead)

(* --- trace tooling ---------------------------------------------------- *)

let config_conv =
  let parse = function
    | "tower" -> Ok `Tower
    | "roof" -> Ok `Roof
    | "floor" -> Ok `Floor
    | "walk" -> Ok `Walk
    | s -> Error (`Msg (Printf.sprintf "unknown config %S" s))
  in
  let print ppf c =
    Format.pp_print_string ppf
      (match c with
      | `Tower -> "tower"
      | `Roof -> "roof"
      | `Floor -> "floor"
      | `Walk -> "walk")
  in
  Arg.conv (parse, print)

let predictors_of = function
  | `Tower -> Config.predictors (Config.tower ())
  | `Roof -> Config.predictors (Config.roof ())
  | `Floor -> Config.predictors (Config.floor ())
  | `Walk -> Config.walk_predictors (Config.walk ())

let dump_trace_cmd =
  let run config length seed out =
    let r, s = predictors_of config in
    let trace =
      Ssj_stream.Trace.generate ~r ~s
        ~rng:(Ssj_prob.Rng.create seed)
        ~length
    in
    match out with
    | Some filename -> (
      match Ssj_stream.Trace_io.save trace ~filename with
      | Ok () -> Format.printf "wrote %d steps to %s@." length filename
      | Error e ->
        Format.eprintf "sjoin: cannot write %s: %s@." filename
          (Ssj_stream.Trace_io.error_to_string e);
        exit 2)
    | None -> (
      try
        Ssj_stream.Trace_io.to_channel trace stdout;
        flush stdout
      with Sys_error msg ->
        (* Closing drops the unwritten bytes, so the flush at exit does
           not raise the same error again. *)
        close_out_noerr stdout;
        Format.eprintf "sjoin: cannot write stdout: %s@." msg;
        exit 2)
  in
  let config =
    Arg.(value & opt config_conv `Tower & info [ "config" ] ~doc:"Workload.")
  in
  let length = Arg.(value & opt positive 1000 & info [ "len" ] ~doc:"Steps.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "dump-trace" ~doc:"Sample a workload trace and emit it as CSV.")
    Term.(const run $ config $ length $ seed $ out)

let run_trace_cmd =
  let run filename capacity =
    let trace =
      match Ssj_stream.Trace_io.load_result ~filename with
      | Ok trace -> trace
      | Error e ->
        Format.eprintf "sjoin: cannot load %s: %s@." filename
          (Ssj_stream.Trace_io.error_to_string e);
        exit 2
    in
    let open Ssj_core in
    let open Ssj_engine in
    let policies =
      [
        ("RAND", Baselines.rand ~rng:(Ssj_prob.Rng.create 1) ());
        ("PROB", Baselines.prob ());
      ]
    in
    Format.printf "replaying %s (%d steps) with cache %d:@." filename
      (Ssj_stream.Trace.length trace)
      capacity;
    Format.printf "  OPT-OFFLINE  %d@."
      (Opt_offline.max_results ~trace ~capacity ());
    List.iter
      (fun (label, policy) ->
        let result = Join_sim.run ~trace ~policy ~capacity () in
        Format.printf "  %-12s %d@." label result.Join_sim.total_results)
      policies
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.csv")
  in
  let capacity =
    Arg.(value & opt non_negative 10 & info [ "cache" ] ~doc:"Cache size.")
  in
  Cmd.v
    (Cmd.info "run-trace"
       ~doc:"Replay an archived trace under RAND/PROB and the offline optimum.")
    Term.(const run $ file $ capacity)

(* --- conformance ------------------------------------------------------ *)

let check_cmd =
  let open Ssj_conform in
  let run all only list_only replay_file print_golden seed count repro_dir
      artifact inject =
    (match inject with
    | None -> ()
    | Some "band-skew" ->
      (* Deliberate off-by-one in the indexed band probe: the registry
         must catch it and shrink it (the CI injected-bug gate). *)
      Ssj_engine.Join_index.Testhook.set_band_probe_skew 1
    | Some other ->
      Format.eprintf "sjoin check: unknown --inject %S (try band-skew)@."
        other;
      exit 2);
    if list_only then begin
      List.iter
        (fun (c : Check.t) ->
          Format.printf "%-6s %s@."
            (Check.kind_to_string c.Check.kind)
            c.Check.name)
        (Conform.all_checks ());
      exit 0
    end;
    if print_golden then begin
      Format.printf "let expected_fig8 =@.  [@.";
      Golden.print_digests Format.std_formatter
        (Golden.fig8_digests ~runs:Golden.canonical_runs
           ~length:Golden.canonical_length ());
      Format.printf "  ]@.@.let expected_fig13 =@.  [@.";
      Golden.print_digests Format.std_formatter (Golden.fig13_digests ());
      Format.printf "  ]@.@.let expected_figures =@.  [@.";
      Golden.print_digests Format.std_formatter (Golden.figure_digests ());
      Format.printf "  ]@.";
      exit 0
    end;
    match replay_file with
    | Some filename -> (
      match Conform.replay ~filename () with
      | Ok `Fixed -> exit 0
      | Ok `Still_fails -> exit 1
      | Error msg ->
        Format.eprintf "sjoin check: %s@." msg;
        exit 2)
    | None ->
      if (not all) && only = None then begin
        Format.eprintf
          "sjoin check: nothing to do (pass --all, --only SUBSTRING, \
           --list, --replay FILE or --print-golden)@.";
        exit 2
      end;
      (* A repro is written only after a failing check has been shrunk;
         an unusable directory is reported now, before any check runs. *)
      Option.iter
        (fun dir ->
          match Sys.is_directory dir with
          | true -> ()
          | false ->
            Format.eprintf "sjoin check: --repro-dir %s is not a directory@."
              dir;
            exit 2
          | exception Sys_error _ -> (
            try Sys.mkdir dir 0o755
            with Sys_error msg ->
              Format.eprintf "sjoin check: cannot create --repro-dir %s: %s@."
                dir msg;
              exit 2))
        repro_dir;
      let artifact =
        match artifact with
        | Some _ -> artifact
        | None ->
          if Sys.file_exists "BENCH_joining.json" then
            Some "BENCH_joining.json"
          else None
      in
      let reports =
        Conform.run_checks ?filter:only ~seed ~count ?repro_dir
          (Conform.all_checks ?artifact ())
      in
      exit (if Conform.ok reports then 0 else 1)
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every registered check.")
  in
  let only =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"SUBSTRING"
             ~doc:"Run only checks whose name contains $(docv).")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List registered checks and exit.")
  in
  let replay_file =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a repro JSON against its recorded check.")
  in
  let print_golden =
    Arg.(value & flag
         & info [ "print-golden" ]
             ~doc:"Recompute and print the golden digest tables, then exit.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base case-generation seed.")
  in
  let count =
    Arg.(value & opt int 100
         & info [ "count" ] ~doc:"Generated cases per randomized check.")
  in
  let repro_dir =
    Arg.(value & opt (some string) None
         & info [ "repro-dir" ] ~docv:"DIR"
             ~doc:"Write minimized repro JSON files into $(docv).")
  in
  let artifact =
    Arg.(value & opt (some string) None
         & info [ "artifact" ] ~docv:"PATH"
             ~doc:"Tracked BENCH_joining.json for the fig8 rounding \
                   cross-check (default: ./BENCH_joining.json if present).")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Test-only: enable a deliberate engine bug (band-skew) \
                   before running, to exercise the detect-and-shrink path.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Conformance suite (ssj-check): differential oracles, metamorphic \
          laws and golden figure digests, with counterexample shrinking.")
    Term.(
      const run $ all $ only $ list_only $ replay_file $ print_golden $ seed
      $ count $ repro_dir $ artifact $ inject)

(* --- figures ------------------------------------------------------------ *)

let run_figure opts (f : Experiments.figure) =
  f.Experiments.run opts Format.std_formatter

let figure_cmds =
  List.map
    (fun (f : Experiments.figure) ->
      Cmd.v
        (Cmd.info f.Experiments.name ~doc:f.Experiments.doc)
        Term.(const (fun opts -> run_figure opts f) $ opts_term))
    Experiments.figures
  @ [
      Cmd.v
        (Cmd.info "all" ~doc:"Run every figure and example.")
        Term.(
          const (fun opts -> List.iter (run_figure opts) Experiments.figures)
          $ opts_term);
    ]

let cmds = dump_trace_cmd :: run_trace_cmd :: check_cmd :: figure_cmds

let () =
  (* Every sweep reads SSJ_JOBS; a malformed value is reported once, here,
     rather than as an exception out of the first sweep. *)
  (match Ssj_prob.Parallel.default_jobs () with
  | (_ : int) -> ()
  | exception Invalid_argument msg ->
    Format.eprintf "sjoin: %s@." msg;
    exit 2);
  (* Events are written from inside simulation steps; an event file that
     cannot be opened is reported here, before any of them. *)
  (if Ssj_obs.Obs.on () then
     match Ssj_obs.Obs.open_event_sink () with
     | Ok () -> ()
     | Error msg ->
       Format.eprintf "sjoin: cannot write SSJ_OBS_FILE: %s@." msg;
       exit 2);
  (* A write that fails inside a step drops the sink and the run goes
     on; the lost events are still an error, reported once the command
     is done, whichever way it exits. *)
  at_exit (fun () ->
      match Ssj_obs.Obs.events_lost () with
      | None -> ()
      | Some msg ->
        Format.eprintf "sjoin: events lost, cannot write SSJ_OBS_FILE: %s@."
          msg;
        exit 2);
  let info =
    Cmd.info "sjoin" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'On Joining and Caching Stochastic Streams' \
         (Xie, Yang, Chen)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
