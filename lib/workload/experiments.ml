open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine

type opts = {
  runs : int;
  length : int;
  seed : int;
  capacity : int;
  sweep : int list;
  real_sizes : int list;
  fe_runs : int;
  fe_length : int;
  fe_lookahead : int;
  fe_sweep : int list;
}

let default =
  {
    (* Paper scale: 50 independent runs of 5000-tuple streams. *)
    runs = 50;
    length = 5000;
    seed = 42;
    capacity = 10;
    sweep = [ 1; 2; 5; 10; 15; 20; 30; 40; 50 ];
    real_sizes = [ 10; 25; 50; 100; 200; 300 ];
    (* FlowExpect solves a min-cost flow per step; the paper itself keeps
       its look-ahead study at length 500 / memory 20 (Section 6.4). *)
    fe_runs = 3;
    fe_length = 500;
    fe_lookahead = 5;
    fe_sweep = [ 1; 2; 3; 5; 8; 12; 16; 20; 25; 30 ];
  }

(* --- shared helpers ------------------------------------------------ *)

(* Independent realisations of one configuration: run [i] draws fresh
   stream models from [predictors] and the seed [seed + 1009 i]. *)
let traces predictors ~runs ~length ~seed =
  Array.init runs (fun i ->
      let r, s = predictors () in
      Trace.generate ~r ~s ~rng:(Rng.create (seed + (1009 * i))) ~length)

let trend_traces cfg = traces (fun () -> Config.predictors cfg)

let setup ~capacity =
  {
    Runner.capacity;
    warmup = Runner.default_warmup ~capacity;
    window = None;
  }

let mean_of label summaries =
  Option.map
    (fun s -> s.Runner.mean)
    (List.find_opt (fun s -> s.Runner.label = label) summaries)

(* One column per label of the first lineup: that label's mean in each
   lineup, NaN where it is missing. *)
let mean_columns = function
  | [] -> []
  | first :: _ as lineups ->
    List.map
      (fun s ->
        let label = s.Runner.label in
        ( label,
          Array.of_list
            (List.map
               (fun summaries ->
                 Option.value (mean_of label summaries) ~default:Float.nan)
               lineups) ))
      first

let print_summaries ~out ~name summaries =
  Table.print ~out
    ~header:[ name; "mean results"; "stddev" ]
    (List.map
       (fun s ->
         [
           s.Runner.label;
           Table.float_cell s.Runner.mean;
           Table.float_cell s.Runner.stddev;
         ])
       summaries)

(* --- Figure 6 ------------------------------------------------------ *)

let fig6 opts out =
  let alpha = float_of_int opts.capacity in
  let l = Lfun.exp_ ~alpha in
  let step = Dist.discretized_normal ~sigma:1.0 ~bound:5 in
  let lo = -20 and hi = 20 in
  let curves =
    List.map
      (fun drift ->
        ( Printf.sprintf "drift=%d" drift,
          Precompute.walk_caching_curve ~step ~drift ~l ~lo ~hi () ))
      [ 0; 2; 4 ]
  in
  let xs = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i)) in
  let columns =
    List.map
      (fun (label, curve) ->
        ( label,
          Array.init (hi - lo + 1) (fun i ->
              Interp.Curve.eval curve (lo + i)) ))
      curves
  in
  Format.fprintf out
    "@.[fig6] h_R(v_x - x_t0) for random-walk caching, N(0,1) steps, \
     L_exp(alpha=%g); larger drift favours tuples to the right.@."
    alpha;
  let columns =
    List.map (fun (l, c) -> (l, Array.map (fun v -> v *. 1000.0) c)) columns
  in
  Table.series ~out ~title:"Figure 6: precomputed h_R (x1000)"
    ~x_label:"vx-xt0" ~xs ~columns ()

(* --- Figure 7 ------------------------------------------------------ *)

let fig7 out =
  let tower = (Config.tower ()).Config.s_noise in
  let roof = (Config.roof ()).Config.s_noise in
  let floor = (Config.floor ()).Config.s_noise in
  let lo = -15 and hi = 15 in
  let xs = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i)) in
  let col label pmf =
    (label, Array.init (hi - lo + 1) (fun i -> Pmf.prob pmf (lo + i)))
  in
  Format.fprintf out
    "@.[fig7] S-noise pmfs of the three trend configurations.@.";
  Table.series ~out ~decimals:4 ~title:"Figure 7: TOWER/ROOF/FLOOR noise pmfs"
    ~x_label:"value"
    ~xs
    ~columns:[ col "TOWER" tower; col "ROOF" roof; col "FLOOR" floor ]
    ()

(* --- Figure 8 ------------------------------------------------------ *)

let trend_configs () = [ Config.tower (); Config.roof (); Config.floor () ]

let fig8 opts out =
  let capacity = opts.capacity in
  let walk = Config.walk () in
  (* Per configuration: label, stream models, baseline lineup, and the
     FlowExpect policy of the reduced-scale block. *)
  let configs =
    List.map
      (fun cfg ->
        ( cfg.Config.label,
          (fun () -> Config.predictors cfg),
          Factory.trend_policies cfg ~seed:opts.seed (),
          Factory.trend_flow_expect cfg ~lookahead:opts.fe_lookahead ))
      (trend_configs ())
    @ [
        ( walk.Config.wlabel,
          (fun () -> Config.walk_predictors walk),
          Factory.walk_policies walk ~seed:opts.seed ~capacity,
          Factory.walk_flow_expect walk ~lookahead:opts.fe_lookahead );
      ]
  in
  let table ~runs ~length ~seed ~flow_expect order =
    let row (label, predictors, policies, fe) =
      let traces = traces predictors ~runs ~length ~seed in
      let policies =
        if flow_expect then policies @ [ ("FLOWEXPECT", fe) ] else policies
      in
      let summaries =
        Runner.compare_joining ~setup:(setup ~capacity) ~traces ~policies ()
      in
      label
      :: List.map
           (fun name ->
             Option.fold (mean_of name summaries) ~none:"-"
               ~some:Table.float_cell)
           order
    in
    Table.print ~out ~header:("config" :: order) (List.map row configs)
  in
  Format.fprintf out
    "@.[fig8] Average join counts, cache=%d, %d runs x %d tuples \
     (paper: 50 x 5000).@."
    capacity opts.runs opts.length;
  table ~runs:opts.runs ~length:opts.length ~seed:opts.seed
    ~flow_expect:false
    [ "OPT-OFFLINE"; "RAND"; "PROB"; "LIFE"; "HEEB" ];
  (* FlowExpect block at reduced scale (it solves a flow per step). *)
  Format.fprintf out
    "@.[fig8/FE] FlowExpect block at reduced scale: %d runs x %d tuples, \
     lookahead %d.@."
    opts.fe_runs opts.fe_length opts.fe_lookahead;
  table ~runs:opts.fe_runs ~length:opts.fe_length ~seed:(opts.seed + 7)
    ~flow_expect:true
    [ "OPT-OFFLINE"; "FLOWEXPECT"; "RAND"; "PROB"; "LIFE"; "HEEB" ]

(* --- Figures 9-12 --------------------------------------------------- *)

(* Cache-size sweeps use one fixed warm-up — 4 × the largest size, which
   satisfies the paper's "no less than four times the cache size" rule
   for every point — so that (a) every point counts over the same window
   and (b) OPT-offline comes from a single optimum-vs-capacity curve
   solve per trace instead of one solve per point. *)
let sweep_figure ~out ~title ~policies_for ~traces opts =
  let sizes = opts.sweep in
  let warmup = Runner.default_warmup ~capacity:(List.fold_left max 1 sizes) in
  let curves =
    Parallel.map
      (fun trace ->
        Opt_offline.max_results_curve ~trace ~capacities:sizes ~start:warmup ())
      traces
  in
  let opt_column =
    Array.of_list
      (List.mapi
         (fun i _ ->
           Ssj_prob.Stats.mean
             (Array.map (fun curve -> float_of_int (snd (List.nth curve i)))
                curves))
         sizes)
  in
  let lineups =
    List.map
      (fun capacity ->
        Runner.compare_joining
          ~setup:{ Runner.capacity; warmup; window = None }
          ~traces
          ~policies:(policies_for capacity)
          ~include_opt:false ())
      sizes
  in
  Table.series ~out ~title ~x_label:"memory"
    ~xs:(List.map string_of_int sizes)
    ~columns:(("OPT-OFFLINE", opt_column) :: mean_columns lineups)
    ()

let trend_sweep cfg ~figure opts out =
  Format.fprintf out
    "@.[%s] %s: cache-size sweep, %d runs x %d tuples.@." figure
    cfg.Config.label opts.runs opts.length;
  let traces =
    trend_traces cfg ~runs:opts.runs ~length:opts.length ~seed:opts.seed
  in
  sweep_figure ~out
    ~title:(Printf.sprintf "%s: %s join counts vs memory" figure cfg.Config.label)
    ~policies_for:(fun _ -> Factory.trend_policies cfg ~seed:opts.seed ())
    ~traces opts

let fig12 opts out =
  let walk = Config.walk () in
  Format.fprintf out
    "@.[fig12] WALK: cache-size sweep (no LIFE: no window), %d runs x %d \
     tuples.@."
    opts.runs opts.length;
  let traces =
    traces
      (fun () -> Config.walk_predictors walk)
      ~runs:opts.runs ~length:opts.length ~seed:opts.seed
  in
  sweep_figure ~out ~title:"fig12: WALK join counts vs memory"
    ~policies_for:(fun capacity ->
      Factory.walk_policies walk ~seed:opts.seed ~capacity)
    ~traces opts

(* --- Figure 13 ------------------------------------------------------ *)

type fig13_data = {
  fitted : Ar1.params;
  reference : int array;
  rows : (int * Runner.summary list) list;
}

(* The Figure 13 computation without the printing, exposed so the
   conformance golden digests ({!Ssj_conform.Golden}) replay exactly
   the published series. *)
let fig13_data opts =
  let rng = Rng.create opts.seed in
  let series = Real.synthetic_ar1 ~rng ~days:3650 () in
  let reference = Real.to_bins series in
  let fitted = Fit.ar1_of_ints reference in
  let sizes = opts.real_sizes in
  let ls =
    Array.of_list
      (List.map (fun c -> Lfun.exp_ ~alpha:(float_of_int (max 2 c))) sizes)
  in
  let lo, hi = Factory.real_surface_bounds fitted in
  let surfaces =
    Precompute.ar1_caching_surfaces fitted ~ls ~vx_lo:lo ~vx_hi:hi ~x0_lo:lo
      ~x0_hi:hi ~nv:5 ~nx:5 ()
  in
  let rows =
    List.mapi
      (fun i capacity ->
        let policies =
          [
            ("RAND", fun () -> Classic.rand_cache ~rng:(Rng.create opts.seed));
            ("LRU", fun () -> Classic.lru ());
            ("PROB(LFU)", fun () -> Classic.lfu ());
            ("HEEB", Factory.real_heeb_of_surface surfaces.(i));
          ]
        in
        ( capacity,
          Runner.compare_caching ~capacity ~warmup:0
            ~references:[| reference |] ~policies () ))
      sizes
  in
  { fitted; reference; rows }

let fig13 opts out =
  let { fitted; reference; rows } = fig13_data opts in
  Format.fprintf out
    "@.[fig13] REAL caching: synthetic Melbourne temperatures (3650 days); \
     our MLE fit (0.1C bins): phi1=%.3f phi0=%.2f sigma=%.2f (paper, in C: \
     0.72 / 5.59 / 4.22).@."
    fitted.Ar1.phi1 fitted.Ar1.phi0 fitted.Ar1.sigma;
  let float_series = Array.map float_of_int reference in
  Format.fprintf out
    "model order check (Yule-Walker AIC, lower is better): p=1 %.1f, p=2 \
     %.1f, p=3 %.1f -> AR(1) suffices.@."
    (Fit.aic float_series ~order:1)
    (Fit.aic float_series ~order:2)
    (Fit.aic float_series ~order:3);
  Table.series ~out ~title:"fig13: REAL number of misses vs memory size"
    ~x_label:"memory"
    ~xs:(List.map (fun (c, _) -> string_of_int c) rows)
    ~columns:(mean_columns (List.map snd rows))
    ()

(* --- Figures 14 / 17 / 18 ------------------------------------------- *)

let share_figure ~title ~variants opts out =
  let every = max 1 (opts.length / 10) in
  let columns =
    List.map
      (fun (label, cfg) ->
        let r, s = Config.predictors cfg in
        let trace =
          Trace.generate ~r ~s ~rng:(Rng.create opts.seed) ~length:opts.length
        in
        let policy = Factory.trend_heeb cfg () in
        let result =
          Join_sim.run ~trace ~policy ~capacity:opts.capacity
            ~record_share:every ()
        in
        (label, Array.of_list (List.map snd result.Join_sim.share_samples)))
      variants
  in
  let n =
    List.fold_left (fun acc (_, c) -> max acc (Array.length c)) 0 columns
  in
  let xs = List.init n (fun i -> string_of_int (i * every)) in
  Table.series ~out ~decimals:2 ~title ~x_label:"time" ~xs ~columns ()

let fig14 opts out =
  Format.fprintf out
    "@.[fig14] Fraction of cache taken by R tuples under HEEB (TOWER-SYM \
     variants), cache=%d.@."
    opts.capacity;
  share_figure ~title:"fig14: R share of cache under HEEB"
    ~variants:
      [
        ("same", Config.tower_sym ());
        ("R lags 2", Config.tower_sym ~r_lag:2 ());
        ("R lags 4", Config.tower_sym ~r_lag:4 ());
        ("S std x2", Config.tower_sym ~s_sigma_mult:2.0 ());
        ("S std x4", Config.tower_sym ~s_sigma_mult:4.0 ());
      ]
    opts out

let fig17 opts out =
  Format.fprintf out
    "@.[fig17] R share of cache, S-noise variance ratios 1:1 / 1:2 / 1:4.@.";
  share_figure ~title:"fig17: R share vs variance ratio"
    ~variants:
      [
        ("1:1", Config.tower_sym ());
        ("1:2", Config.tower_sym ~s_sigma_mult:2.0 ());
        ("1:4", Config.tower_sym ~s_sigma_mult:4.0 ());
      ]
    opts out

let fig18 opts out =
  Format.fprintf out
    "@.[fig18] R share of cache, R lagging 1 / 2 / 4 steps behind S.@.";
  share_figure ~title:"fig18: R share vs lag"
    ~variants:
      [
        ("lag 1", Config.tower_sym ~r_lag:1 ());
        ("lag 2", Config.tower_sym ~r_lag:2 ());
        ("lag 4", Config.tower_sym ~r_lag:4 ());
      ]
    opts out

(* --- Figure 15 / 16 -------------------------------------------------- *)

let fig15 opts out =
  let rng = Rng.create opts.seed in
  let reference = Real.to_bins (Real.synthetic_ar1 ~rng ~days:3650 ()) in
  let fitted = Fit.ar1_of_ints reference in
  let alpha = 100.0 in
  let l = Lfun.exp_ ~alpha in
  let lo, hi = Factory.real_surface_bounds fitted in
  let surface =
    Precompute.ar1_caching_surface fitted ~l ~vx_lo:lo ~vx_hi:hi ~x0_lo:lo
      ~x0_hi:hi ~nv:5 ~nx:5 ()
  in
  let kernel = Ar1.kernel fitted in
  (* Exact evaluation grid: 7 x 7 inside the control region. *)
  let grid_n = 7 in
  let grid i = lo + ((hi - lo) * i / (grid_n - 1)) in
  let max_abs = ref 0.0 and sum_abs = ref 0.0 and count = ref 0 in
  let rows = ref [] in
  for i = 0 to grid_n - 1 do
    let vx = grid i in
    let columns =
      Precompute.caching_columns ~kernel ~target:vx ~ls:[| l |] ()
    in
    for j = 0 to grid_n - 1 do
      let x0 = grid j in
      let x0c = max kernel.Markov.lo (min kernel.Markov.hi x0) in
      let exact = columns.(0).(x0c - kernel.Markov.lo) in
      let approx =
        Interp.Surface.eval surface (float_of_int vx) (float_of_int x0)
      in
      let err = Float.abs (exact -. approx) in
      max_abs := Float.max !max_abs err;
      sum_abs := !sum_abs +. err;
      incr count;
      if j mod 2 = 0 && i mod 2 = 0 then
        rows :=
          [
            string_of_int vx;
            string_of_int x0;
            Printf.sprintf "%.5f" exact;
            Printf.sprintf "%.5f" approx;
          ]
          :: !rows
    done
  done;
  Format.fprintf out
    "@.[fig15/16] REAL h2 surface: exact vs bicubic on 25 control points \
     (alpha=%g).@."
    alpha;
  Table.print ~out ~header:[ "vx"; "x0"; "exact"; "bicubic" ] (List.rev !rows);
  Format.fprintf out
    "approximation error over the %dx%d grid: max=%.2e mean=%.2e@." grid_n
    grid_n !max_abs
    (!sum_abs /. float_of_int !count)

(* --- Figure 19 ------------------------------------------------------- *)

let fig19 opts out =
  let cfg = Config.floor () in
  let capacity = 20 in
  let length = min opts.fe_length 500 in
  Format.fprintf out
    "@.[fig19] FlowExpect look-ahead sweep: FLOOR, %d runs x %d tuples, \
     memory %d.@."
    opts.fe_runs length capacity;
  let traces = trend_traces cfg ~runs:opts.fe_runs ~length ~seed:opts.seed in
  let baseline =
    Runner.compare_joining ~setup:(setup ~capacity) ~traces
      ~policies:(Factory.trend_policies cfg ~seed:opts.seed ())
      ()
  in
  let fe_means =
    List.map
      (fun lookahead ->
        let summaries =
          Runner.compare_joining ~setup:(setup ~capacity) ~traces
            ~policies:
              [ ("FLOWEXPECT", Factory.trend_flow_expect cfg ~lookahead) ]
            ~include_opt:false ()
        in
        (List.hd summaries).Runner.mean)
      opts.fe_sweep
  in
  let n = List.length opts.fe_sweep in
  let flat label =
    ( label,
      Array.make n (Option.value (mean_of label baseline) ~default:Float.nan) )
  in
  Table.series ~out ~title:"fig19: FlowExpect look-ahead effect"
    ~x_label:"deltaT"
    ~xs:(List.map string_of_int opts.fe_sweep)
    ~columns:
      ([ ("FLOWEXPECT", Array.of_list fe_means) ]
      @ List.map flat [ "RAND"; "PROB"; "LIFE"; "HEEB"; "OPT-OFFLINE" ])
    ()

(* --- Section 3.4 example --------------------------------------------- *)

let example_scenario () =
  (* "-" tuples get distinct sentinel values that join nothing. *)
  let r_pmf ~time:_ ~last:_ delta =
    match delta with
    | 1 -> Pmf.point 2
    | 2 -> Pmf.point 3
    | 3 -> Pmf.of_assoc [ (2, 0.5); (-111, 0.5) ]
    | _ -> Pmf.point (-199)
  in
  let s_pmf ~time:_ ~last:_ delta =
    match delta with
    | 1 -> Pmf.of_assoc [ (3, 0.5); (-211, 0.5) ]
    | 2 -> Pmf.of_assoc [ (1, 0.8); (-212, 0.2) ]
    | 3 -> Pmf.of_assoc [ (1, 0.8); (-213, 0.2) ]
    | _ -> Pmf.point (-299)
  in
  let r = Predictor.make ~name:"ex-R" ~time:0 ~pmf:r_pmf () in
  let s = Predictor.make ~name:"ex-S" ~time:0 ~pmf:s_pmf () in
  (r, s)

let example_3_4_numbers () =
  let r, s = example_scenario () in
  let cached = [ Tuple.make ~side:Tuple.R ~value:1 ~arrival:(-1) ] in
  let arrivals =
    [
      Tuple.make ~side:Tuple.R ~value:(-100) ~arrival:0;
      Tuple.make ~side:Tuple.S ~value:2 ~arrival:0;
    ]
  in
  let plan =
    Flow_expect.decide ~r ~s ~lookahead:3 ~cached ~arrivals ~capacity:1 ()
  in
  (* Exhaustive benchmarks over the same scenario. *)
  let steps : Expectimax.step list =
    [
      [ (1.0, (None, Some 2)) ];
      [ (0.5, (Some 2, Some 3)); (0.5, (Some 2, None)) ];
      [ (0.8, (Some 3, Some 1)); (0.2, (Some 3, None)) ];
      [
        (0.4, (Some 2, Some 1));
        (0.1, (Some 2, None));
        (0.4, (None, Some 1));
        (0.1, (None, None));
      ];
    ]
  in
  let cache = [ (Tuple.R, 1) ] in
  let adaptive = Expectimax.best ~cache ~capacity:1 ~steps in
  let plan_bound = Expectimax.best_plan_benefit ~cache ~capacity:1 ~steps in
  (plan, adaptive, plan_bound)

let example_3_4 out =
  let plan, adaptive, plan_bound = example_3_4_numbers () in
  Format.fprintf out
    "@.[example 3.4] FlowExpect's chosen plan keeps %s with expected \
     benefit %.3f (paper: keep the cached R tuple, 1.6).@."
    (String.concat ", "
       (List.map
          (fun t -> Format.asprintf "%a" Tuple.pp t)
          plan.Flow_expect.keep))
    plan.Flow_expect.expected_benefit;
  Format.fprintf out
    "best predetermined plan (exhaustive): %.3f; optimal adaptive strategy: \
     %.3f (paper: 1.75) -> FlowExpect is suboptimal.@."
    plan_bound adaptive

(* --- Section 7 example ----------------------------------------------- *)

let example_7 out =
  let alpha = 10.0 in
  let tuples =
    [ ("x1", 0.50, 1); ("x2", 0.49, 50); ("x3", 0.01, 51) ]
  in
  Format.fprintf out
    "@.[example 7] sliding-window scores (alpha=%g): PROB prefers x1, LIFE \
     prefers x3, windowed HEEB ranks x2 > x1 > x3.@."
    alpha;
  Table.print ~out
    ~header:[ "tuple"; "p"; "lifetime"; "PROB"; "LIFE"; "HEEB-W" ]
    (List.map
       (fun (name, p, life) ->
         [
           name;
           Printf.sprintf "%.2f" p;
           string_of_int life;
           Printf.sprintf "%.3f" (Sliding.prob_score ~p ~remaining_lifetime:life);
           Printf.sprintf "%.3f" (Sliding.life_score ~p ~remaining_lifetime:life);
           Printf.sprintf "%.3f"
             (Sliding.stationary_score ~alpha ~p ~remaining_lifetime:life);
         ])
       tuples)

(* --- extensions ------------------------------------------------------- *)

let window_extension opts out =
  let width = 25 in
  let window = Window.create ~width in
  (* Skewed stationary workload: frequent small values, rare large ones. *)
  let zipf =
    Pmf.of_assoc (List.init 40 (fun i -> (i + 1, 1.0 /. float_of_int (i + 1))))
  in
  let make_preds () =
    (Stationary.create ~time:(-1) zipf, Stationary.create ~time:(-1) zipf)
  in
  let traces =
    Array.init opts.runs (fun i ->
        let r, s = make_preds () in
        Trace.generate ~r ~s
          ~rng:(Rng.create (opts.seed + (811 * i)))
          ~length:opts.length)
  in
  let lifetime = Baselines.Of_window window in
  let capacity = opts.capacity in
  let policies =
    [
      ("RAND", fun () -> Baselines.rand ~rng:(Rng.create opts.seed) ~lifetime ());
      ("PROB", fun () -> Baselines.prob ~lifetime ());
      ("LIFE", fun () -> Baselines.life ~lifetime ());
      ( "HEEB-W",
        fun () ->
          let r, s = make_preds () in
          (* Lifetime-matched alpha: residence is bounded by eviction
             pressure (~capacity/2 with two arrivals per step), not by the
             window. *)
          let residence =
            Float.min (float_of_int width) (float_of_int capacity /. 2.0)
          in
          Sliding.heeb ~r ~s
            ~alpha:(Lfun.alpha_for_lifetime (Float.max 1.5 residence))
            ~window () );
    ]
  in
  let summaries =
    Runner.compare_joining
      ~setup:
        {
          Runner.capacity;
          warmup = Runner.default_warmup ~capacity;
          window = Some window;
        }
      ~traces ~policies ~include_opt:false ()
  in
  Format.fprintf out
    "@.[window extension] sliding-window join (w=%d) on a skewed stationary \
     workload, cache=%d, %d runs x %d tuples.@."
    width capacity opts.runs opts.length;
  print_summaries ~out ~name:"policy" summaries

let multi_extension opts out =
  let streams = 3 in
  let queries = [ (0, 1); (1, 2) ] in
  let runs = min opts.runs 10 and length = min opts.length 3000 in
  let capacity = opts.capacity in
  let feed i =
    Linear_trend.linear ~time:(-1) ~speed:1 ~offset:(-i)
      ~noise:(Ssj_prob.Dist.discretized_normal ~sigma:2.0 ~bound:10)
      ()
  in
  let trace_sets =
    Array.init runs (fun run ->
        let rng = Rng.create (opts.seed + (613 * run)) in
        Array.init streams (fun i ->
            fst (Predictor.generate (feed i) (Rng.split rng) length)))
  in
  let counted make traces =
    float_of_int
      (Ssj_multi.Multi.run ~traces ~queries ~policy:(make ()) ~capacity
         ~warmup:(Runner.default_warmup ~capacity) ())
        .Ssj_multi.Multi.counted_results
  in
  Format.fprintf out
    "@.[multi extension] 2 join queries over 3 streams (hub = stream 1), \
     cache=%d, %d runs x %d tuples.@."
    capacity runs length;
  print_summaries ~out ~name:"policy"
    (Runner.lineup trace_sets
       [
         ( "RAND",
           counted (fun () -> Ssj_multi.Multi.rand ~rng:(Rng.create opts.seed))
         );
         ("PROB", counted (fun () -> Ssj_multi.Multi.prob ()));
         ( "HEEB-multi",
           counted (fun () ->
               Ssj_multi.Multi.heeb
                 ~predictors:(Array.init streams feed)
                 ~l:(Lfun.exp_ ~alpha:4.0) ~queries ()) );
       ])

let band_extension opts out =
  let cfg = Config.tower () in
  let runs = min opts.runs 10 and length = min opts.length 2000 in
  let traces = trend_traces cfg ~runs ~length ~seed:opts.seed in
  let capacity = opts.capacity in
  let warmup = Runner.default_warmup ~capacity in
  Format.fprintf out
    "@.[band extension] TOWER under band-join semantics (|v1 - v2| <= b), \
     cache=%d, %d runs x %d tuples.@."
    capacity runs length;
  (* Window-aware baselines as in Section 6.2 (the equijoin lifetime is
     a close under-estimate for small bands). *)
  let lifetime = Config.lifetime cfg in
  let row band =
    let opt trace =
      float_of_int
        (Opt_offline.max_results_from ~band ~trace ~capacity ~start:warmup ())
    in
    let counted policy_of trace =
      float_of_int
        (Join_sim.run ~trace ~policy:(policy_of ()) ~capacity ~warmup ~band ())
          .Join_sim.counted_results
    in
    let heeb () =
      let r, s = Config.predictors cfg in
      Band.heeb ~r ~s ~l:(Lfun.exp_ ~alpha:(Config.alpha cfg)) ~band ()
    in
    string_of_int band
    :: List.map
         (fun s -> Table.float_cell s.Runner.mean)
         (Runner.lineup traces
            [
              ("OPT-OFFLINE", opt);
              ( "RAND",
                counted (fun () ->
                    Baselines.rand ~rng:(Rng.create opts.seed) ~lifetime ()) );
              ("PROB", counted (fun () -> Baselines.prob ~lifetime ()));
              ("HEEB-band", counted heeb);
            ])
  in
  Table.print ~out
    ~header:[ "band"; "OPT-OFFLINE"; "RAND"; "PROB"; "HEEB-band" ]
    (List.map row [ 0; 1; 2 ])

let adversarial opts out =
  (* Empirical competitive-ratio estimates: the paper's Section 8 points
     at competitive analysis as future work; here we at least measure the
     worst observed OPT/policy ratio over many independent realisations
     (a lower bound on the true competitive ratio). *)
  let runs = min opts.runs 25 and length = min opts.length 3000 in
  let capacity = opts.capacity in
  (* Per run, OPT over the policy's count; the mean accumulates
     [ratio / runs] in run order. *)
  let ratio_row label traces policies =
    match
      Runner.compare_joining ~setup:(setup ~capacity) ~traces ~policies ()
    with
    | [] -> []
    | opt :: summaries ->
      List.map
        (fun s ->
          let ratios =
            Array.map2
              (fun o got -> o /. Float.max 1.0 got)
              opt.Runner.per_run s.Runner.per_run
          in
          let mean =
            Array.fold_left
              (fun acc ratio -> acc +. (ratio /. float_of_int runs))
              0.0 ratios
          in
          let worst =
            Array.fold_left
              (fun w ratio -> if ratio > w then ratio else w)
              1.0 ratios
          in
          [
            label;
            s.Runner.label;
            Printf.sprintf "%.2f" mean;
            Printf.sprintf "%.2f" worst;
          ])
        summaries
  in
  let tower = Config.tower () in
  let tower_traces = trend_traces tower ~runs ~length ~seed:opts.seed in
  let walk = Config.walk () in
  let walk_tr =
    traces (fun () -> Config.walk_predictors walk) ~runs ~length ~seed:opts.seed
  in
  Format.fprintf out
    "@.[adversarial] empirical competitive-ratio estimates (OPT/policy; \
     mean and worst over %d runs x %d tuples, cache=%d).@."
    runs length capacity;
  Table.print ~out
    ~header:[ "config"; "policy"; "mean ratio"; "worst ratio" ]
    (ratio_row "TOWER" tower_traces
       (Factory.trend_policies tower ~seed:opts.seed ())
    @ ratio_row "WALK" walk_tr
        (Factory.walk_policies walk ~seed:opts.seed ~capacity))

(* --- fault x policy degradation grid --------------------------------- *)

module Fault = Ssj_fault.Fault

type robustness_cell = { policy : string; mean : float; degradation : float }
type robustness_row = { fault : string; cells : robustness_cell list }

type robustness_report = {
  grid_capacity : int;
  grid_runs : int;
  grid_length : int;
  clean : Runner.summary list;
  rows : robustness_row list;
  regime : robustness_row list;
}

(* Three severities per perturbation kind.  Rates are per arrival; the
   trace model is one R + one S per step, so e.g. drop 0.05 loses ~250
   of each stream's 5000 tuples at paper scale. *)
let grid_kinds () =
  [
    Fault.Drop { rate = 0.01 };
    Fault.Drop { rate = 0.05 };
    Fault.Drop { rate = 0.2 };
    Fault.Duplicate { rate = 0.01 };
    Fault.Duplicate { rate = 0.05 };
    Fault.Duplicate { rate = 0.2 };
    Fault.Burst { rate = 0.002; len = 15 };
    Fault.Burst { rate = 0.01; len = 15 };
    Fault.Burst { rate = 0.05; len = 15 };
    Fault.Stall { rate = 0.002; len = 25 };
    Fault.Stall { rate = 0.01; len = 25 };
    Fault.Stall { rate = 0.05; len = 25 };
    Fault.Noise { rate = 0.05; amp = 4 };
    Fault.Noise { rate = 0.2; amp = 4 };
    Fault.Noise { rate = 0.5; amp = 4 };
  ]

(* The same kind with nothing to fire: rate 0, its other parameters
   kept. *)
let zero_severity = function
  | Fault.Drop _ -> Fault.Drop { rate = 0.0 }
  | Fault.Duplicate _ -> Fault.Duplicate { rate = 0.0 }
  | Fault.Burst { len; _ } -> Fault.Burst { rate = 0.0; len }
  | Fault.Stall { len; _ } -> Fault.Stall { rate = 0.0; len }
  | Fault.Noise { amp; _ } -> Fault.Noise { rate = 0.0; amp }

let robustness_grid ?capacity opts =
  let truth = Config.tower () in
  let capacity = match capacity with Some c -> c | None -> opts.capacity in
  let runs = opts.runs and length = opts.length in
  (* Same trace seeds as the tracked bench sweep.  The [clean] row runs
     them through every grid kind at rate 0, so at the sweep's capacity
     it is bit-identical to the sweep summaries only if the fault
     plumbing at severity zero changes nothing — the bench's gate. *)
  let traces = trend_traces truth ~runs ~length ~seed:opts.seed in
  let policies = Factory.trend_policies truth ~seed:opts.seed () in
  let summarize_traces traces' =
    Runner.compare_joining ~setup:(setup ~capacity) ~traces:traces' ~policies
      ~include_opt:false ()
  in
  let zero =
    {
      Fault.kinds = List.map zero_severity (grid_kinds ());
      seed = opts.seed;
    }
  in
  let clean = summarize_traces (Array.map (Fault.apply zero) traces) in
  let clean_mean label = Option.value (mean_of label clean) ~default:0.0 in
  let cells summaries =
    List.map
      (fun s ->
        let base = clean_mean s.Runner.label in
        {
          policy = s.Runner.label;
          mean = s.Runner.mean;
          degradation = (if base > 0.0 then s.Runner.mean /. base else 0.0);
        })
      summaries
  in
  let rows =
    List.map
      (fun kind ->
        let spec = { Fault.kinds = [ kind ]; seed = opts.seed } in
        let dirty = Array.map (Fault.apply spec) traces in
        { fault = Fault.describe kind; cells = cells (summarize_traces dirty) })
      (grid_kinds ())
  in
  (* Mid-run regime switch: the generating model changes at length/2;
     every policy keeps the (now stale) TOWER model it was built with. *)
  let regime_row label after =
    let switched =
      Array.init runs (fun i ->
          let r, s = Config.predictors truth in
          let r_after, s_after = Config.predictors after in
          Fault.generate_switched ~r ~s ~r_after ~s_after ~at:(length / 2)
            ~rng:(Rng.create (opts.seed + (1009 * i)))
            ~length)
    in
    { fault = label; cells = cells (summarize_traces switched) }
  in
  let regime =
    [
      regime_row "switch@mid: sigma_S x2" (Config.tower ~s_sigma_mult:2.0 ());
      regime_row "switch@mid: lag 3 + sigma_S x3"
        (Config.tower ~r_lag:3 ~s_sigma_mult:3.0 ());
      regime_row "switch@mid: FLOOR" (Config.floor ());
    ]
  in
  {
    grid_capacity = capacity;
    grid_runs = runs;
    grid_length = length;
    clean;
    rows;
    regime;
  }

let print_robustness_grid ?(out = Format.std_formatter) report =
  Format.fprintf out
    "@.[robustness/faults] fault x policy degradation grid (data = TOWER), \
     cache=%d, %d runs x %d tuples; cells: mean (fraction of clean).@."
    report.grid_capacity report.grid_runs report.grid_length;
  let policy_names = List.map (fun s -> s.Runner.label) report.clean in
  let clean_row =
    "clean"
    :: List.map
         (fun s -> Printf.sprintf "%.1f (1.00)" s.Runner.mean)
         report.clean
  in
  let fault_row row =
    row.fault
    :: List.map
         (fun c -> Printf.sprintf "%.1f (%.2f)" c.mean c.degradation)
         row.cells
  in
  Table.print ~out
    ~header:("fault" :: policy_names)
    (clean_row :: List.map fault_row (report.rows @ report.regime))

let robustness opts out =
  (* How gracefully does HEEB degrade when its model is wrong?  The data
     comes from TOWER; the policy believes variants of it. *)
  let truth = Config.tower () in
  let runs = min opts.runs 12 and length = min opts.length 3000 in
  let traces = trend_traces truth ~runs ~length ~seed:opts.seed in
  let capacity = opts.capacity in
  let heeb_believing cfg name =
    ( name,
      fun () ->
        let r, s = Config.predictors cfg in
        Heeb.joining ~name ~r ~s
          ~l:(Lfun.exp_ ~alpha:(Config.alpha cfg))
          ~mode:(`Memo_trend cfg.Config.speed) () )
  in
  let policies =
    [
      heeb_believing truth "correct model";
      heeb_believing (Config.tower ~s_sigma_mult:3.0 ()) "sigma_S x3";
      heeb_believing (Config.tower ~r_lag:3 ()) "lag off by 2";
      ( "stale model (no drift)",
        fun () ->
          (* Believes the distributions are frozen at time 0: a
             stationary model with the trend's initial windows. *)
          let frozen offset noise =
            Stationary.create ~time:(-1)
              (Ssj_prob.Pmf.shift noise offset)
          in
          Heeb.joining ~name:"stale"
            ~r:(frozen truth.Config.r_offset truth.Config.r_noise)
            ~s:(frozen truth.Config.s_offset truth.Config.s_noise)
            ~l:(Lfun.exp_ ~alpha:(Config.alpha truth))
            () );
      ("RAND", fun () -> Baselines.rand ~rng:(Rng.create opts.seed)
                          ~lifetime:(Config.lifetime truth) ());
    ]
  in
  let summaries =
    Runner.compare_joining ~setup:(setup ~capacity) ~traces ~policies ()
  in
  Format.fprintf out
    "@.[robustness] HEEB under model misspecification (data = TOWER), \
     cache=%d, %d runs x %d tuples.@."
    capacity runs length;
  print_summaries ~out ~name:"believed model" summaries;
  (* Dirty-stream counterpart at the same reduced scale: the model stays
     right but the stream itself misbehaves. *)
  print_robustness_grid ~out
    (robustness_grid { opts with runs; length; capacity })

let ablation_lfun opts out =
  let cfg = Config.tower () in
  let traces =
    trend_traces cfg ~runs:opts.runs ~length:opts.length ~seed:opts.seed
  in
  let capacity = opts.capacity in
  let alpha = Config.alpha cfg in
  let heeb_with name l =
    ( name,
      fun () ->
        let r, s = Config.predictors cfg in
        Heeb.joining ~name ~r ~s ~l ~mode:(`Memo_trend cfg.Config.speed) () )
  in
  let policies =
    [
      heeb_with "Lexp(paper a)" (Lfun.exp_ ~alpha);
      heeb_with "Lexp(a/2)" (Lfun.exp_ ~alpha:(Float.max 0.5 (alpha /. 2.0)));
      heeb_with "Lexp(4a)" (Lfun.exp_ ~alpha:(4.0 *. alpha));
      heeb_with "Lfixed(1)" (Lfun.fixed 1);
      heeb_with "Lfixed(12)" (Lfun.fixed 12);
      heeb_with "Lfixed(40)" (Lfun.fixed 40);
      ( "adaptive-a",
        fun () ->
          let r, s = Config.predictors cfg in
          Heeb.joining_adaptive ~r ~s () );
    ]
  in
  let summaries =
    Runner.compare_joining ~setup:(setup ~capacity) ~traces ~policies ()
  in
  Format.fprintf out
    "@.[ablation] HEEB's L choice on TOWER, cache=%d, %d runs x %d tuples \
     (alpha_paper=%.2f).@."
    capacity opts.runs opts.length alpha;
  print_summaries ~out ~name:"variant" summaries

(* --- the figure table -------------------------------------------------- *)

type figure = {
  name : string;
  doc : string;
  run : opts -> Format.formatter -> unit;
}

let figure name doc run = { name; doc; run }

let figures =
  [
    figure "example-3-4" "Section 3.4 FlowExpect-suboptimality scenario."
      (fun _ -> example_3_4);
    figure "example-7" "Section 7 sliding-window example (x1/x2/x3)."
      (fun _ -> example_7);
    figure "fig6" "Precomputed h_R curves for random-walk caching." fig6;
    figure "fig7" "TOWER/ROOF/FLOOR noise pmfs." (fun _ -> fig7);
    figure "fig8" "Join counts across configurations, fixed cache." fig8;
    figure "fig9" "TOWER cache-size sweep." (fun opts ->
        trend_sweep (Config.tower ()) ~figure:"fig9" opts);
    figure "fig10" "ROOF cache-size sweep." (fun opts ->
        trend_sweep (Config.roof ()) ~figure:"fig10" opts);
    figure "fig11" "FLOOR cache-size sweep." (fun opts ->
        trend_sweep (Config.floor ()) ~figure:"fig11" opts);
    figure "fig12" "WALK cache-size sweep." fig12;
    figure "fig13" "REAL caching misses vs memory size." fig13;
    figure "fig14" "Cache share between streams under HEEB." fig14;
    figure "fig15" "Exact vs bicubic h2 surface (Figures 15/16)." fig15;
    figure "fig17" "Cache share vs variance ratio." fig17;
    figure "fig18" "Cache share vs lag." fig18;
    figure "fig19" "FlowExpect look-ahead sweep." fig19;
    figure "window" "Extension: sliding-window join shootout."
      window_extension;
    figure "band" "Extension: band-join semantics." band_extension;
    figure "multi" "Extension: multiple join queries over 3 streams."
      multi_extension;
    figure "robustness" "Extension: HEEB under model misspecification."
      robustness;
    figure "adversarial" "Extension: empirical competitive-ratio estimates."
      adversarial;
    figure "ablation" "Extension: HEEB L-function ablation." ablation_lfun;
  ]
