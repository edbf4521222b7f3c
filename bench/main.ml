(* Benchmark harness.  `dune exec bench/main.exe`:

   1. times the tracked fig8 sweep ({!Ssj_conform.Golden}'s TOWER traces,
      capacity 25, trend lineup; best of 5), exits 1 if its means
      coincide or drift from the golden digests, and re-runs it with the
      obs gate on for per-policy metric snapshots;
   2. runs the robustness pass: the fault x policy degradation grid,
      regime switches, and a supervised sweep with one deliberate crash;
   3. times the kernel behind each figure with bechamel.

   The figure tables themselves (EXPERIMENTS.md) come from `sjoin all`.
   Everything measured lands in BENCH_joining.json (schema 4); its
   baseline.kernels_ns, the CI kernel-gate anchors, is carried unchanged
   from the artifact being overwritten.  Env knobs: SSJ_BENCH_RUNS /
   SSJ_BENCH_LEN (default: the paper's 50 x 5000; malformed values are
   rejected), SSJ_BENCH_KERNELS=0 skips pass 3, SSJ_JOBS, and
   SSJ_CHECKPOINT / SSJ_RETRIES for the demo. *)

open Bechamel
open Toolkit
open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload

let opts =
  let env name default = Ssj_prob.Parallel.env_int name ~min:1 ~default in
  {
    Experiments.default with
    runs = env "SSJ_BENCH_RUNS" Experiments.default.runs;
    length = env "SSJ_BENCH_LEN" Experiments.default.length;
  }

(* --- bechamel micro-benchmarks -------------------------------------- *)

let tower = Config.tower ()

let tower_trace length seed =
  let r, s = Config.predictors tower in
  Trace.generate ~r ~s ~rng:(Rng.create seed) ~length

let bench_fig6_kernel () =
  (* One walk-caching DP (the Figure 6 precomputation). *)
  let step = Dist.discretized_normal ~sigma:1.0 ~bound:5 in
  Staged.stage (fun () ->
      ignore
        (Precompute.walk_caching_curve ~step ~drift:2
           ~l:(Lfun.exp_ ~alpha:10.0) ~lo:(-10) ~hi:10 ~horizon:128 ()))

let bench_sim ?(capacity = 10) ?(seed = 7) policy_of length =
  let trace = tower_trace length seed in
  Staged.stage (fun () ->
      ignore (Join_sim.run ~trace ~policy:(policy_of ()) ~capacity ()))

let bench_fig13_kernel () =
  let reference =
    Real.to_bins (Real.synthetic_ar1 ~rng:(Rng.create 3) ~days:365 ())
  in
  let fitted = Fit.ar1_of_ints reference in
  (* The caching run alone: the surface is built once, outside the timed
     closure (building is the h2-surface-build kernel's job), so a slower
     access path is not hidden under the DPs. *)
  let surface = Factory.real_surface ~params:fitted ~capacity:20 in
  Staged.stage (fun () ->
      ignore
        (Cache_sim.run ~reference
           ~policy:(Factory.real_heeb_of_surface surface ())
           ~capacity:20 ()))

let bench_fig15_kernel () =
  let fitted = Real.bin_params Real.paper_params in
  let lo, hi = Factory.real_surface_bounds fitted in
  let surface =
    Precompute.ar1_caching_surface fitted ~l:(Lfun.exp_ ~alpha:50.0) ~vx_lo:lo
      ~vx_hi:hi ~x0_lo:lo ~x0_hi:hi ~nv:5 ~nx:5 ~horizon:256 ()
  in
  let x = ref 0.0 in
  Staged.stage (fun () ->
      x := !x +. Interp.Surface.eval surface 180.0 220.0)

let bench_fig19_kernel ?(warm = true) lookahead =
  (* One FlowExpect decision: graph build + min-cost-flow solve.  [warm]
     reuses one {!Flow_expect.handle} across iterations — the steady
     state of the online policy, which holds a handle per instance; the
     cold variant pays graph allocation and law recomputation each call.
     Decisions are bit-identical either way. *)
  let r, s = Config.predictors (Config.floor ()) in
  let r = Predictor.advance r [| 0 |] and s = Predictor.advance s [| 1 |] in
  let cached =
    List.init 10 (fun i -> Tuple.make ~side:Tuple.S ~value:i ~arrival:(-i - 1))
  in
  let arrivals =
    [ Tuple.make ~side:Tuple.R ~value:0 ~arrival:0;
      Tuple.make ~side:Tuple.S ~value:1 ~arrival:0 ]
  in
  let handle = if warm then Some (Flow_expect.handle ()) else None in
  Staged.stage (fun () ->
      ignore
        (Flow_expect.decide ?handle ~r ~s ~lookahead ~cached ~arrivals
           ~capacity:10 ()))

let bench_fig13_surface_build () =
  (* The Figure 13 precomputation alone: batched multi-target backward
     DPs over one shared dense kernel, three L-functions at once. *)
  let fitted = Real.bin_params Real.paper_params in
  let lo, hi = Factory.real_surface_bounds fitted in
  let ls = Array.map (fun alpha -> Lfun.exp_ ~alpha) [| 10.0; 50.0; 200.0 |] in
  Staged.stage (fun () ->
      ignore
        (Precompute.ar1_caching_surfaces fitted ~ls ~vx_lo:lo ~vx_hi:hi
           ~x0_lo:lo ~x0_hi:hi ~nv:5 ~nx:5 ~horizon:256 ()))

let bench_opt_offline () =
  let trace = tower_trace 500 9 in
  Staged.stage (fun () ->
      ignore (Opt_offline.max_results ~trace ~capacity:10 ()))

let micro_tests =
  Test.make_grouped ~name:"kernels"
    [
      Test.make ~name:"fig6:walk-caching-DP" (bench_fig6_kernel ());
      Test.make ~name:"fig8:HEEB-500-steps"
        (bench_sim (Factory.trend_heeb tower) 500);
      Test.make ~name:"fig8:PROB-500-steps"
        (bench_sim
           (fun () -> Baselines.prob ~lifetime:(Config.lifetime tower) ())
           500);
      Test.make ~name:"fig9-12:HEEB-cap20-500-steps"
        (bench_sim ~capacity:20 ~seed:8 (Factory.trend_heeb tower) 500);
      Test.make ~name:"fig13:HEEB-h2-365-days" (bench_fig13_kernel ());
      Test.make ~name:"fig13:h2-surface-build" (bench_fig13_surface_build ());
      Test.make ~name:"fig15:bicubic-eval" (bench_fig15_kernel ());
      Test.make ~name:"fig19:flowexpect-step-l5" (bench_fig19_kernel 5);
      Test.make ~name:"fig19:flowexpect-step-l20" (bench_fig19_kernel 20);
      Test.make ~name:"fig19:flowexpect-step-l20-cold"
        (bench_fig19_kernel ~warm:false 20);
      Test.make ~name:"opt-offline:mcmf-500-steps" (bench_opt_offline ());
    ]

let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances micro_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let estimates = ref [] in
  Format.printf "@.== bechamel kernels (time per run) ==@.";
  Hashtbl.iter
    (fun _label per_instance ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            estimates := (name, est) :: !estimates;
            let human =
              if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
              else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
              else Printf.sprintf "%.1f ns" est
            in
            Format.printf "  %-34s %s@." name human
          | Some _ | None -> Format.printf "  %-34s (no estimate)@." name)
        per_instance)
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !estimates

(* --- fig8-style wall-clock sweep ------------------------------------ *)

module Obs = Ssj_obs.Obs
module Json = Ssj_obs.Json
module Golden = Ssj_conform.Golden

type sweep = {
  runs : int;
  length : int;
  jobs : int;
  wall_s : float; (* best of [wall_reps] *)
  wall_reps : float list;
  summaries : Runner.summary list;
}

let run_sweep traces =
  let runs = opts.runs and length = opts.length in
  let jobs = Parallel.default_jobs () in
  (* The sweep is deterministic (fresh policies, fixed trace seeds), so
     repetitions measure the same computation; report the best of 5 to
     shed first-iteration warm-up, like the bechamel section does. *)
  let measure () =
    let t0 = Unix.gettimeofday () in
    let summaries =
      Runner.compare_joining ~setup:Golden.sweep_setup ~traces
        ~policies:(Golden.sweep_lineup ()) ~include_opt:false ~jobs ()
    in
    (Unix.gettimeofday () -. t0, summaries)
  in
  let measured = List.init 5 (fun _ -> measure ()) in
  let wall_reps = List.map fst measured in
  let wall_s = List.fold_left Float.min Float.infinity wall_reps in
  let summaries = snd (List.hd measured) in
  Format.printf "@.== fig8 sweep wall-clock (%d runs x %d, capacity %d, %d \
                 job%s) ==@."
    runs length Golden.sweep_capacity jobs
    (if jobs = 1 then "" else "s");
  List.iter
    (fun s ->
      Format.printf "  %-6s mean=%.2f stddev=%.2f@." s.Runner.label
        s.Runner.mean s.Runner.stddev)
    summaries;
  Format.printf "  wall: %.3f s (best of %s)@." wall_s
    (String.concat "/" (List.map (Printf.sprintf "%.3f") wall_reps));
  { runs; length; jobs; wall_s; wall_reps; summaries }

(* A benchmark whose policy dimension has collapsed must never be
   checked in silently again: if every policy produced the same mean (to
   the 4 decimals the artifact records) the sweep configuration is
   degenerate — no eviction decision discriminated the policies. *)
let fail_if_degenerate sweep =
  match
    List.map (fun s -> Printf.sprintf "%.4f" s.Runner.mean) sweep.summaries
  with
  | first :: (_ :: _ as rest) when List.for_all (String.equal first) rest ->
    Format.eprintf
      "ERROR: degenerate policy sweep: all %d policies have mean %s at \
       capacity %d (%d runs x %d).@.The cache never forces a \
       discriminating eviction — see join_sim.occupancy and \
       policy.boundary_score_ties under SSJ_OBS=1.@."
      (List.length sweep.summaries)
      first Golden.sweep_capacity sweep.runs sweep.length;
    exit 1
  | _ -> ()

(* At canonical scale the fig8 sweep is pinned bit-for-bit by the
   conformance golden digests; fail before rewriting the artifact if any
   number moved, and point at the registry that attributes the drift. *)
let fail_if_drifted sweep =
  let canonical =
    sweep.runs = Golden.canonical_runs
    && sweep.length = Golden.canonical_length
  in
  match if canonical then Golden.fig8_drift sweep.summaries else None with
  | None -> ()
  | Some (expected, got) ->
    Format.eprintf
      "ERROR: canonical sweep drifted from golden digest %s: expected %s, \
       got %s.@.Run `sjoin check --all` to attribute the drift, `sjoin \
       check --print-golden` to re-pin it deliberately.@."
      expected.Golden.key expected.Golden.hex got.Golden.hex;
    exit 1

(* A policy's artifact row: its name, then its numbers at 4 decimals. *)
let named name fields =
  Json.Object
    (("name", Json.String name)
    :: List.map (fun (k, v) -> (k, Json.fixed 4 v)) fields)

let sweep_json sweep =
  let policy s =
    named s.Runner.label
      [ ("mean", s.Runner.mean); ("stddev", s.Runner.stddev) ]
  in
  Json.Object
    [
      ("runs", Json.int sweep.runs);
      ("length", Json.int sweep.length);
      ("capacity", Json.int Golden.sweep_capacity);
      ("jobs", Json.int sweep.jobs);
      ("wall_s", Json.fixed 3 sweep.wall_s);
      ("wall_s_reps", Json.Array (List.map (Json.fixed 3) sweep.wall_reps));
      ("policies", Json.Array (List.map policy sweep.summaries));
    ]

let obs_events_file = "OBS_events.jsonl"

(* Re-run the tracked sweep with the obs gate forced on: one rep, policy
   at a time, resetting the process-global metric registry before each
   policy so its snapshot isolates that policy's engine activity.  Also
   the enabled-overhead measurement, and a determinism gate: the
   observed means must be bit-identical to the timed (gate-off) pass.
   Returns the artifact's "obs" block. *)
let run_obs_pass sweep traces =
  let env_enabled = Obs.on () in
  (try Sys.remove obs_events_file with Sys_error _ -> ());
  Obs.set_event_sink (`Path obs_events_file);
  Obs.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let observed =
    List.map
      (fun policy ->
        Obs.reset ();
        let summaries =
          Runner.compare_joining ~setup:Golden.sweep_setup ~traces
            ~policies:[ policy ] ~include_opt:false ~jobs:sweep.jobs ()
        in
        (List.hd summaries, Obs.snapshot ()))
      (Golden.sweep_lineup ())
  in
  let enabled_wall_s = Unix.gettimeofday () -. t0 in
  Obs.set_enabled env_enabled;
  List.iter2
    (fun timed (obs, _) ->
      if timed.Runner.mean <> obs.Runner.mean then begin
        Format.eprintf
          "ERROR: SSJ_OBS=1 changed the %s sweep mean (%.4f vs %.4f)@."
          timed.Runner.label timed.Runner.mean obs.Runner.mean;
        exit 1
      end)
    sweep.summaries observed;
  let overhead = 100.0 *. ((enabled_wall_s /. sweep.wall_s) -. 1.0) in
  Format.printf
    "  obs pass: %.3f s with SSJ_OBS forced on (%+.1f%% vs %.3f s off); \
     events in %s@."
    enabled_wall_s overhead sweep.wall_s obs_events_file;
  let per_policy (s, views) = (s.Runner.label, Obs.json_of_snapshot views) in
  Json.Object
    [
      ("env_enabled", Json.Bool env_enabled);
      ("events_file", Json.String obs_events_file);
      ("enabled_wall_s", Json.fixed 3 enabled_wall_s);
      ("enabled_overhead_pct", Json.fixed 1 overhead);
      ("per_policy", Json.Object (List.map per_policy observed));
    ]

(* --- robustness: fault grid + supervision demo ---------------------- *)

module Fault = Ssj_fault.Fault

(* The grid's clean row re-runs the tracked sweep through the fault
   plumbing at severity zero; anything but bit-identical means/stddevs
   means the plumbing perturbs clean runs and the artifact would be
   comparing apples to oranges. *)
let fail_unless_clean_matches sweep report =
  List.iter2
    (fun (timed : Runner.summary) (clean : Runner.summary) ->
      if
        timed.Runner.label <> clean.Runner.label
        || timed.Runner.mean <> clean.Runner.mean
        || timed.Runner.stddev <> clean.Runner.stddev
      then begin
        Format.eprintf
          "ERROR: robustness clean row diverged from the tracked sweep: %s \
           %.4f/%.4f vs %s %.4f/%.4f@."
          clean.Runner.label clean.Runner.mean clean.Runner.stddev
          timed.Runner.label timed.Runner.mean timed.Runner.stddev;
        exit 1
      end)
    sweep.summaries report.Experiments.clean

let fail_unless_regime_finite report =
  List.iter
    (fun (row : Experiments.robustness_row) ->
      List.iter
        (fun (c : Experiments.robustness_cell) ->
          if not (Float.is_finite c.Experiments.degradation) then begin
            Format.eprintf
              "ERROR: non-finite degradation for %s under %S@."
              c.Experiments.policy row.Experiments.fault;
            exit 1
          end)
        row.Experiments.cells)
    (report.Experiments.rows @ report.Experiments.regime)

(* Returns the artifact's "robustness" block. *)
let run_robustness_pass sweep traces =
  let t0 = Unix.gettimeofday () in
  let report =
    Experiments.robustness_grid ~capacity:Golden.sweep_capacity opts
  in
  fail_unless_clean_matches sweep report;
  fail_unless_regime_finite report;
  Experiments.print_robustness_grid report;
  (* Forced-on obs pass: count injected faults on a few traces, then run
     the supervised sweep with one deliberately-crashing run so the
     failure manifest, retry and checkpoint counters are exercised in
     every artifact. *)
  let env_enabled = Obs.on () in
  Obs.set_enabled true;
  Obs.reset ();
  let spec =
    {
      Fault.kinds =
        [
          Fault.Drop { rate = 0.05 };
          Fault.Duplicate { rate = 0.05 };
          Fault.Burst { rate = 0.01; len = 15 };
          Fault.Stall { rate = 0.01; len = 25 };
          Fault.Noise { rate = 0.2; amp = 4 };
        ];
      seed = 42;
    }
  in
  Array.iteri (fun i t -> if i < 5 then ignore (Fault.apply spec t)) traces;
  let supervision =
    { (Runner.supervision_from_env ()) with Runner.retries = 1 }
  in
  let heeb = Factory.trend_heeb tower in
  (* Crash run 3, or the last run when the sweep is smaller — the demo
     must always have one failure to salvage around, at any scale. *)
  let crash_run = min 3 (Array.length traces - 1) in
  let demo =
    Runner.run_supervised ~label:"HEEB" ~supervision ~ckpt_context:"demo"
      ~jobs:sweep.jobs
      (fun run trace ->
        if run = crash_run then
          failwith
            (Printf.sprintf "injected demo crash: run %d always fails"
               crash_run);
        let result =
          Join_sim.run ~trace ~policy:(heeb ())
            ~capacity:Golden.sweep_setup.Runner.capacity
            ~warmup:Golden.sweep_setup.Runner.warmup ()
        in
        float_of_int result.Join_sim.counted_results)
      traces
  in
  let fault_counters = Obs.json_of_snapshot (Obs.snapshot ()) in
  Obs.set_enabled env_enabled;
  Option.iter Checkpoint.close supervision.Runner.checkpoint;
  let sal = demo.Runner.salvaged and nfail = List.length demo.Runner.failures in
  let mean = demo.Runner.summary.Runner.mean in
  if nfail = 0 || Float.is_nan mean then begin
    Format.eprintf
      "ERROR: supervision demo expected 1 recorded failure and a finite \
       salvaged mean (got %d failures, mean %f)@."
      nfail mean;
    exit 1
  end;
  Format.printf
    "  robustness: %d fault rows + %d regime rows in %.3f s; demo salvaged \
     %d/%d runs, %d failure(s), %d checkpoint hit(s)@."
    (List.length report.Experiments.rows)
    (List.length report.Experiments.regime)
    (Unix.gettimeofday () -. t0)
    sal (sal + nfail) nfail demo.Runner.checkpoint_hits;
  let row (row : Experiments.robustness_row) =
    let cell (c : Experiments.robustness_cell) =
      named c.Experiments.policy
        [
          ("mean", c.Experiments.mean);
          ("degradation", c.Experiments.degradation);
        ]
    in
    Json.Object
      [
        ("fault", Json.String row.Experiments.fault);
        ("policies", Json.Array (List.map cell row.Experiments.cells));
      ]
  in
  let failure { Runner.policy; run; attempts; error; _ } =
    Json.Object
      [
        ("policy", Json.String policy); ("run", Json.int run);
        ("attempts", Json.int attempts); ("error", Json.String error);
      ]
  in
  Json.Object
    [
      ("capacity", Json.int report.Experiments.grid_capacity);
      ("runs", Json.int report.Experiments.grid_runs);
      ("length", Json.int report.Experiments.grid_length);
      ("clean_matches_sweep", Json.Bool true);
      ("grid", Json.Array (List.map row report.Experiments.rows));
      ("regime", Json.Array (List.map row report.Experiments.regime));
      ( "supervision_demo",
        Json.Object
          [
            ("runs", Json.int (Array.length traces));
            ("salvaged", Json.int sal);
            ("checkpoint_hits", Json.int demo.Runner.checkpoint_hits);
            ("mean", Json.fixed 4 mean);
            ("mean_is_finite", Json.Bool (Float.is_finite mean));
            ("failures", Json.Array (List.map failure demo.Runner.failures));
          ] );
      ("fault_counters", fault_counters);
    ]

(* --- BENCH_joining.json (schema 4) ----------------------------------- *)

let artifact_path = "BENCH_joining.json"

(* The CI kernel gate compares fresh kernel times against anchors taken
   before the fast kernels landed.  They are data, not code: carried
   byte for byte from the artifact about to be overwritten. *)
let carried_kernel_anchors () =
  let anchors j =
    Option.bind (Json.member "baseline" j) (Json.member "kernels_ns")
  in
  match Result.map anchors (Json.of_file artifact_path) with
  | Ok (Some (Json.Object anchors)) -> anchors
  | Ok _ | Error _ ->
    Format.printf "baseline: no kernel anchors in %s to carry@." artifact_path;
    []

let write_json ~sweep ~obs ~robustness ~kernels =
  let ns (name, ns) = (name, Json.fixed 1 ns) in
  let anchors = Json.Object (carried_kernel_anchors ()) in
  let artifact =
    Json.Object
      [
        ("schema_version", Json.int 4);
        ("benchmark", Json.String "fig8-style joining sweep (TOWER, seed 42)");
        ("sweep", sweep_json sweep);
        ("obs", obs);
        ("robustness", robustness);
        ("kernels_ns", Json.Object (List.map ns kernels));
        ("baseline", Json.Object [ ("kernels_ns", anchors) ]);
      ]
  in
  Out_channel.with_open_text artifact_path (fun oc ->
      output_string oc (Json.pretty artifact));
  Format.printf "wrote %s@." artifact_path

let () =
  Format.printf
    "=== ssj bench: reproduction of 'On Joining and Caching Stochastic \
     Streams' ===@.";
  Format.printf "scale: %d runs x %d tuples (paper: 50 x 5000); override \
                 with SSJ_BENCH_RUNS / SSJ_BENCH_LEN.@."
    opts.Experiments.runs opts.Experiments.length;
  let traces =
    Golden.sweep_traces ~runs:opts.Experiments.runs
      ~length:opts.Experiments.length
  in
  let sweep = run_sweep traces in
  fail_if_degenerate sweep;
  fail_if_drifted sweep;
  let obs = run_obs_pass sweep traces in
  let robustness = run_robustness_pass sweep traces in
  let kernels =
    match Sys.getenv_opt "SSJ_BENCH_KERNELS" with
    | Some "0" ->
      Format.printf "(kernel pass skipped: SSJ_BENCH_KERNELS=0)@.";
      []
    | _ -> run_micro ()
  in
  write_json ~sweep ~obs ~robustness ~kernels;
  Format.printf "@.done.@."
