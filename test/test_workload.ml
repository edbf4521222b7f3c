open Ssj_prob
open Ssj_model
open Ssj_workload
open Helpers

let test_tower_shape () =
  let cfg = Config.tower () in
  check_int "R lags one step" (-1) cfg.Config.r_offset;
  check_int "S on time" 0 cfg.Config.s_offset;
  check_int "R noise bound" 10 (Pmf.hi cfg.Config.r_noise);
  check_int "S noise bound" 15 (Pmf.hi cfg.Config.s_noise);
  check_float ~eps:0.05 "R noise sigma ~1" 1.0 (Pmf.stddev cfg.Config.r_noise);
  check_float ~eps:0.05 "S noise sigma ~2" 2.0 (Pmf.stddev cfg.Config.s_noise)

let test_floor_uniform () =
  let cfg = Config.floor () in
  check_float "uniform S"
    (1.0 /. 31.0)
    (Pmf.prob cfg.Config.s_noise 0);
  check_float "alpha lifetime" 12.5 cfg.Config.alpha_lifetime

let test_lifetime_formula () =
  let cfg = Config.floor () in
  let lifetime ~now (t : Ssj_stream.Tuple.t) =
    match Config.lifetime cfg with
    | Ssj_core.Baselines.Trend { r_add; s_add; speed } ->
      ((t.value + if t.side = Ssj_stream.Tuple.R then r_add else s_add) / speed)
      - now
    | Ssj_core.Baselines.Of_window _ -> Alcotest.fail "FLOOR has a trend lifetime"
  in
  (* S tuple with value v joins R while v >= f_R(t) - w_R = t - 1 - 10:
     last time = v + 11. *)
  let s_tuple = Ssj_stream.Tuple.make ~side:Ssj_stream.Tuple.S ~value:20 ~arrival:0 in
  check_int "S tuple lifetime" (20 + 10 + 1 - 5) (lifetime ~now:5 s_tuple);
  (* R tuple joins S while v >= t - 15: last time = v + 15. *)
  let r_tuple = Ssj_stream.Tuple.make ~side:Ssj_stream.Tuple.R ~value:20 ~arrival:0 in
  check_int "R tuple lifetime" (20 + 15 - 5) (lifetime ~now:5 r_tuple)

let test_alpha_positive () =
  List.iter
    (fun cfg ->
      let a = Config.alpha cfg in
      check_bool (cfg.Config.label ^ " alpha > 0") true (a > 0.0))
    [ Config.tower (); Config.roof (); Config.floor (); Config.tower_sym () ]

let test_walk_config () =
  let w = Config.walk () in
  check_int "no drift" 0 w.Config.drift;
  (* Unit-bin discretisation adds Sheppard's 1/12 to the variance. *)
  check_float ~eps:0.02 "unit steps" (sqrt (1.0 +. (1.0 /. 12.0)))
    (Pmf.stddev w.Config.step);
  let r, s = Config.walk_predictors w in
  check_bool "independent predictors are fresh" true (r != s);
  check_bool "markov kernel available" true (r.Predictor.kernel <> None)

let test_real_ar1_generator () =
  let series = Real.synthetic_ar1 ~rng:(rng 91) ~days:3650 () in
  check_int "length" 3650 (Array.length series);
  let fit = Fit.ar1 series in
  check_float ~eps:0.05 "fitted phi1" 0.72 fit.Ar1.phi1;
  check_float ~eps:0.3 "fitted sigma" 4.22 fit.Ar1.sigma;
  let mean = Stats.mean series in
  check_float ~eps:1.0 "mean near stationary" 19.96 mean

let test_real_binning () =
  let bins = Real.to_bins [| 20.04; 20.06; -1.24 |] in
  Alcotest.(check (array int)) "0.1C bins" [| 200; 201; -12 |] bins

let test_bin_params () =
  let p = Real.bin_params Real.paper_params in
  check_float "phi1 unchanged" 0.72 p.Ar1.phi1;
  check_float ~eps:1e-9 "phi0 x10" 55.9 p.Ar1.phi0;
  check_float ~eps:1e-9 "sigma x10" 42.2 p.Ar1.sigma

let test_factory_lineups () =
  let cfg = Config.tower () in
  let lineup = Factory.trend_policies cfg ~seed:1 () in
  Alcotest.(check (list string)) "trend lineup"
    [ "RAND"; "PROB"; "LIFE"; "HEEB" ]
    (List.map fst lineup);
  let walk = Factory.walk_policies (Config.walk ()) ~seed:1 ~capacity:5 in
  Alcotest.(check (list string)) "walk lineup" [ "RAND"; "PROB"; "HEEB" ]
    (List.map fst walk)

let test_experiments_smoke () =
  (* End-to-end smoke: run the cheap figures and the extensions into a
     buffer, once sequentially and once on two domains.  Every line must
     reach the buffer (no figure may print to stdout behind the
     formatter it is given) and the two texts must be identical. *)
  let opts =
    {
      Experiments.default with
      Experiments.runs = 2;
      length = 120;
      fe_runs = 1;
      fe_length = 60;
      sweep = [ 2; 4 ];
      real_sizes = [ 10; 20 ];
    }
  in
  let smoke jobs =
    let saved = Sys.getenv_opt "SSJ_JOBS" in
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "SSJ_JOBS" (Option.value saved ~default:""))
      (fun () ->
        Unix.putenv "SSJ_JOBS" (string_of_int jobs);
        let buf = Buffer.create 4096 in
        let out = Format.formatter_of_buffer buf in
        List.iter
          (fun name ->
            let f =
              List.find
                (fun f -> f.Experiments.name = name)
                Experiments.figures
            in
            f.Experiments.run opts out)
          [
            "example-3-4"; "example-7"; "fig7"; "fig8"; "fig9"; "window";
            "band"; "multi"; "adversarial"; "ablation";
          ];
        Format.pp_print_flush out ();
        Buffer.contents buf)
  in
  let text = smoke 1 in
  check_bool "SSJ_JOBS=1 and SSJ_JOBS=2 print the same text" true
    (text = smoke 2);
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i =
      if i + nl > tl then false
      else if String.sub text i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "output mentions %s" needle) true
        (contains needle))
    [
      "1.750"; "TOWER"; "HEEB"; "[band extension]"; "[multi extension]";
      "[adversarial]"; "[ablation]"; "[window extension]"; "fig9";
    ]

let suite =
  [
    Alcotest.test_case "TOWER parameters" `Quick test_tower_shape;
    Alcotest.test_case "FLOOR parameters" `Quick test_floor_uniform;
    Alcotest.test_case "lifetime formula" `Quick test_lifetime_formula;
    Alcotest.test_case "alpha choices valid" `Quick test_alpha_positive;
    Alcotest.test_case "WALK parameters" `Quick test_walk_config;
    Alcotest.test_case "REAL generator fits the paper model" `Slow
      test_real_ar1_generator;
    Alcotest.test_case "0.1C binning" `Quick test_real_binning;
    Alcotest.test_case "bin rescaling" `Quick test_bin_params;
    Alcotest.test_case "factory lineups" `Quick test_factory_lineups;
    Alcotest.test_case "experiments smoke" `Slow test_experiments_smoke;
  ]
