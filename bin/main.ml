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

let figure_cmd name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ opts_term)

let unit_cmd name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun (_ : Experiments.opts) -> run ()) $ opts_term)

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
    | None -> Ssj_stream.Trace_io.to_channel trace stdout
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
  let run all only list_only replay_file print_golden seed count shrink_evals
      shrink_seconds repro_dir skip_golden artifact inject =
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
      let artifact =
        match artifact with
        | Some _ -> artifact
        | None ->
          if Sys.file_exists "BENCH_joining.json" then
            Some "BENCH_joining.json"
          else None
      in
      let checks =
        Conform.all_checks ?artifact ~golden:(not skip_golden) ()
      in
      let budget =
        { Shrink.max_evals = shrink_evals; max_seconds = shrink_seconds }
      in
      let reports =
        Conform.run_checks ?filter:only ~seed ~count ~budget ?repro_dir
          checks
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
  let shrink_evals =
    Arg.(value & opt int Shrink.default_budget.Shrink.max_evals
         & info [ "shrink-evals" ] ~doc:"Shrinker evaluation budget.")
  in
  let shrink_seconds =
    Arg.(value & opt float Shrink.default_budget.Shrink.max_seconds
         & info [ "shrink-seconds" ] ~doc:"Shrinker wall-clock budget.")
  in
  let repro_dir =
    Arg.(value & opt (some string) None
         & info [ "repro-dir" ] ~docv:"DIR"
             ~doc:"Write minimized repro JSON files into $(docv).")
  in
  let skip_golden =
    Arg.(value & flag
         & info [ "skip-golden" ]
             ~doc:"Skip the (expensive) golden figure digests.")
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
      $ count $ shrink_evals $ shrink_seconds $ repro_dir $ skip_golden
      $ artifact $ inject)

let cmds =
  [
    dump_trace_cmd;
    run_trace_cmd;
    check_cmd;
    unit_cmd "example-3-4" "Section 3.4 FlowExpect-suboptimality scenario."
      (fun () -> Experiments.example_3_4 ());
    unit_cmd "example-7" "Section 7 sliding-window example (x1/x2/x3)."
      (fun () -> Experiments.example_7 ());
    figure_cmd "fig6" "Precomputed h_R curves for random-walk caching."
      (fun o -> Experiments.fig6 o);
    unit_cmd "fig7" "TOWER/ROOF/FLOOR noise pmfs." (fun () ->
        Experiments.fig7 ());
    figure_cmd "fig8" "Join counts across configurations, fixed cache."
      (fun o -> Experiments.fig8 o);
    figure_cmd "fig9" "TOWER cache-size sweep." (fun o -> Experiments.fig9 o);
    figure_cmd "fig10" "ROOF cache-size sweep." (fun o -> Experiments.fig10 o);
    figure_cmd "fig11" "FLOOR cache-size sweep." (fun o -> Experiments.fig11 o);
    figure_cmd "fig12" "WALK cache-size sweep." (fun o -> Experiments.fig12 o);
    figure_cmd "fig13" "REAL caching misses vs memory size." (fun o ->
        Experiments.fig13 o);
    figure_cmd "fig14" "Cache share between streams under HEEB." (fun o ->
        Experiments.fig14 o);
    figure_cmd "fig15" "Exact vs bicubic h2 surface (Figures 15/16)."
      (fun o -> Experiments.fig15 o);
    figure_cmd "fig17" "Cache share vs variance ratio." (fun o ->
        Experiments.fig17 o);
    figure_cmd "fig18" "Cache share vs lag." (fun o -> Experiments.fig18 o);
    figure_cmd "fig19" "FlowExpect look-ahead sweep." (fun o ->
        Experiments.fig19 o);
    figure_cmd "window" "Extension: sliding-window join shootout." (fun o ->
        Experiments.window_extension o);
    figure_cmd "band" "Extension: band-join semantics." (fun o ->
        Experiments.band_extension o);
    figure_cmd "multi" "Extension: multiple join queries over 3 streams."
      (fun o -> Experiments.multi_extension o);
    figure_cmd "robustness" "Extension: HEEB under model misspecification."
      (fun o -> Experiments.robustness o);
    figure_cmd "adversarial" "Extension: empirical competitive-ratio estimates."
      (fun o -> Experiments.adversarial o);
    figure_cmd "ablation" "Extension: HEEB L-function ablation." (fun o ->
        Experiments.ablation_lfun o);
    figure_cmd "all" "Run every figure and example." (fun o ->
        Experiments.all o);
  ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  (* Events are written from inside simulation steps; an event file that
     cannot be opened is reported here, before any of them. *)
  (if Ssj_obs.Obs.on () then
     match Ssj_obs.Obs.open_event_sink () with
     | Ok () -> ()
     | Error msg ->
       Format.eprintf "sjoin: cannot write SSJ_OBS_FILE: %s@." msg;
       exit 2);
  let info =
    Cmd.info "sjoin" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'On Joining and Caching Stochastic Streams' \
         (Xie, Yang, Chen)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
