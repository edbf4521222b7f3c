open Ssj_prob
open Ssj_model
open Helpers

(* --- generic predictor behaviour ------------------------------------ *)

let test_offline_pointmass () =
  let p = Offline.create [| 5; 7; 9 |] in
  check_float "t=0 value" 1.0 (Predictor.prob p ~delta:1 5);
  check_float "t=2 value" 1.0 (Predictor.prob p ~delta:3 9);
  check_float "wrong value" 0.0 (Predictor.prob p ~delta:1 7);
  let p1 = p.Predictor.observe 5 in
  check_float "after observe" 1.0 (Predictor.prob p1 ~delta:1 7);
  check_int "time advanced" 0 p1.Predictor.time

let test_offline_out_of_range () =
  let strict = Offline.create ~strict:true [| 1 |] in
  Alcotest.check_raises "past the script (strict)"
    (Invalid_argument "Offline.pmf: horizon exceeds the scripted stream")
    (fun () -> ignore (strict.Predictor.pmf 2));
  let lenient = Offline.create [| 1 |] in
  check_float "past the script (lenient) joins nothing" 0.0
    (Predictor.prob lenient ~delta:2 1);
  check_float "sentinel gets the mass" 1.0
    (Predictor.prob lenient ~delta:2 Offline.never_value)

let test_stationary_time_invariant () =
  let dist = Pmf.of_assoc [ (1, 0.3); (2, 0.7) ] in
  let p = Stationary.create dist in
  check_float "delta 1" 0.3 (Predictor.prob p ~delta:1 1);
  check_float "delta 50" 0.3 (Predictor.prob p ~delta:50 1);
  let p' = Predictor.advance p [| 2; 2; 2 |] in
  check_float "history-independent" 0.3 (Predictor.prob p' ~delta:1 1)

let test_linear_trend_shifts () =
  let noise = Dist.uniform ~lo:(-2) ~hi:2 in
  let p = Linear_trend.linear ~time:0 ~speed:1 ~offset:0 ~noise () in
  (* At time 0, X_3 ~ noise + 3. *)
  check_float "center" 0.2 (Predictor.prob p ~delta:3 3);
  check_float "edge" 0.2 (Predictor.prob p ~delta:3 5);
  check_float "outside" 0.0 (Predictor.prob p ~delta:3 6);
  let p' = p.Predictor.observe 1 in
  check_float "after a step the window moved" 0.2 (Predictor.prob p' ~delta:3 4)

let test_linear_trend_sampling () =
  let noise = Dist.uniform ~lo:(-1) ~hi:1 in
  let p = Linear_trend.linear ~time:(-1) ~speed:2 ~offset:10 ~noise () in
  let path, p' = Predictor.generate p (rng 1) 100 in
  check_int "advanced" 99 p'.Predictor.time;
  Array.iteri
    (fun t v ->
      let f = (2 * t) + 10 in
      if v < f - 1 || v > f + 1 then
        Alcotest.failf "sample %d at t=%d outside window around %d" v t f)
    path

let test_random_walk_conditional () =
  let step = Pmf.of_assoc [ (-1, 0.5); (1, 0.5) ] in
  let p = Random_walk.create ~start:0 ~drift:0 ~step () in
  check_float "one step" 0.5 (Predictor.prob p ~delta:1 1);
  check_float "two steps to 0" 0.5 (Predictor.prob p ~delta:2 0);
  check_float "two steps to 2" 0.25 (Predictor.prob p ~delta:2 2);
  let p' = p.Predictor.observe 4 in
  check_float "re-anchors on last" 0.5 (Predictor.prob p' ~delta:1 5)

let test_random_walk_drift () =
  let step = Pmf.point 0 in
  let p = Random_walk.create ~start:10 ~drift:3 ~step () in
  check_float "pure drift" 1.0 (Predictor.prob p ~delta:4 22)

let test_random_walk_matches_convolution_sampling () =
  let step = Dist.discretized_normal ~sigma:1.0 ~bound:4 in
  let p = Random_walk.create ~start:0 ~drift:1 ~step () in
  let r = rng 13 in
  (* Empirical frequency of X_3 = 3 (mean path) vs model probability. *)
  let model = Predictor.prob p ~delta:3 3 in
  let sample () =
    let rec go last d =
      if d = 0 then last
      else go (last + 1 + Pmf.sample step r) (d - 1)
    in
    go 0 3 = 3
  in
  let freq = monte_carlo ~trials:30_000 sample in
  check_float ~eps:0.01 "model matches simulation" model freq

let test_ar1_conditional_moments () =
  let params = { Ar1.phi0 = 2.0; phi1 = 0.5; sigma = 1.0 } in
  check_float "mean delta 1" 7.0
    (Ar1.conditional_mean params ~x0:10.0 ~delta:1);
  check_float "mean delta 2" 5.5
    (Ar1.conditional_mean params ~x0:10.0 ~delta:2);
  check_float "stationary mean" 4.0 (Ar1.stationary_mean params);
  check_float ~eps:1e-9 "stddev delta 1" 1.0 (Ar1.conditional_stddev params ~delta:1);
  check_float ~eps:1e-9 "stddev delta 2"
    (sqrt 1.25)
    (Ar1.conditional_stddev params ~delta:2);
  check_float ~eps:1e-9 "stationary stddev"
    (1.0 /. sqrt 0.75)
    (Ar1.stationary_stddev params)

let test_ar1_pmf_long_horizon_is_stationary () =
  let params = { Ar1.phi0 = 2.0; phi1 = 0.5; sigma = 1.0 } in
  let p = Ar1.create ~start:20 params in
  let far = p.Predictor.pmf 200 in
  check_float ~eps:0.01 "mean converges" (Ar1.stationary_mean params)
    (Pmf.mean far);
  check_float ~eps:0.05 "stddev converges"
    (Ar1.stationary_stddev params)
    (Pmf.stddev far)

let test_ar1_rejects_bad_phi () =
  Alcotest.check_raises "phi1 = 1"
    (Invalid_argument "Ar1: requires 0 < |phi1| < 1") (fun () ->
      ignore (Ar1.create ~start:0 { Ar1.phi0 = 0.0; phi1 = 1.0; sigma = 1.0 }))

(* --- MLE fitting ------------------------------------------------------ *)

let test_fit_recovers_parameters () =
  let true_params = { Ar1.phi0 = 5.59; phi1 = 0.72; sigma = 4.22 } in
  let r = rng 17 in
  let n = 8000 in
  let series = Array.make n 0.0 in
  let x = ref (Ar1.stationary_mean true_params) in
  for t = 0 to n - 1 do
    x :=
      true_params.Ar1.phi0
      +. (true_params.Ar1.phi1 *. !x)
      +. Rng.gaussian r ~mu:0.0 ~sigma:true_params.Ar1.sigma;
    series.(t) <- !x
  done;
  let fit = Fit.ar1 series in
  check_float ~eps:0.03 "phi1" true_params.Ar1.phi1 fit.Ar1.phi1;
  check_float ~eps:0.15 "sigma" true_params.Ar1.sigma fit.Ar1.sigma;
  check_float ~eps:0.8 "phi0" true_params.Ar1.phi0 fit.Ar1.phi0

let test_fit_deterministic_line () =
  (* x_t = 0.5 x_{t-1} + 1 exactly: phi recovered, sigma ~ 0.
     Use a non-converged prefix so the series is not constant. *)
  let series = Array.make 30 0.0 in
  series.(0) <- 100.0;
  for t = 1 to 29 do
    series.(t) <- (0.5 *. series.(t - 1)) +. 1.0
  done;
  let fit = Fit.ar1 series in
  check_float ~eps:1e-6 "phi1 exact" 0.5 fit.Ar1.phi1;
  check_float ~eps:1e-6 "phi0 exact" 1.0 fit.Ar1.phi0;
  check_float ~eps:1e-6 "sigma zero" 0.0 fit.Ar1.sigma

let synthetic_ar1_series ~seed ~n (p : Ar1.params) =
  let r = rng seed in
  let series = Array.make n 0.0 in
  let x = ref (Ar1.stationary_mean p) in
  for t = 0 to n - 1 do
    x := p.Ar1.phi0 +. (p.Ar1.phi1 *. !x) +. Rng.gaussian r ~mu:0.0 ~sigma:p.Ar1.sigma;
    series.(t) <- !x
  done;
  series

let test_yule_walker_recovers_ar1 () =
  let p = { Ar1.phi0 = 5.59; phi1 = 0.72; sigma = 4.22 } in
  let series = synthetic_ar1_series ~seed:19 ~n:8000 p in
  let fit = Fit.yule_walker series ~order:1 in
  check_float ~eps:0.03 "phi1" p.Ar1.phi1 fit.Fit.coeffs.(0);
  check_float ~eps:0.15 "sigma" p.Ar1.sigma fit.Fit.sigma;
  check_float ~eps:0.8 "mean" (Ar1.stationary_mean p) fit.Fit.mean

let test_yule_walker_higher_orders_vanish () =
  (* On AR(1) data the order-3 fit's extra coefficients are ~0 and the
     leading one still matches. *)
  let p = { Ar1.phi0 = 2.0; phi1 = 0.6; sigma = 1.5 } in
  let series = synthetic_ar1_series ~seed:23 ~n:10_000 p in
  let fit = Fit.yule_walker series ~order:3 in
  check_float ~eps:0.05 "phi1 still there" 0.6 fit.Fit.coeffs.(0);
  check_bool "phi2 negligible" true (Float.abs fit.Fit.coeffs.(1) < 0.06);
  check_bool "phi3 negligible" true (Float.abs fit.Fit.coeffs.(2) < 0.06)

let test_aic_flat_beyond_true_order () =
  (* AIC improves a lot from order 0-ish noise to order 1, then flattens:
     order 2 must not beat order 1 by more than a trivial margin. *)
  let p = { Ar1.phi0 = 2.0; phi1 = 0.6; sigma = 1.5 } in
  let series = synthetic_ar1_series ~seed:29 ~n:10_000 p in
  let a1 = Fit.aic series ~order:1 in
  let a2 = Fit.aic series ~order:2 in
  let a4 = Fit.aic series ~order:4 in
  check_bool "order 2 not materially better" true (a1 -. a2 < 10.0);
  check_bool "order 4 not materially better" true (a1 -. a4 < 20.0)

(* --- Markov kernels --------------------------------------------------- *)

let test_first_passage_two_state () =
  (* Deterministic cycle 0 -> 1 -> 0: first passage from 0 to 1 is exactly
     at step 1; to 0 at step 2. *)
  let k =
    {
      Markov.lo = 0;
      hi = 1;
      row = (fun x -> Pmf.point (1 - x));
    }
  in
  let dk = Markov.Dense.of_kernel k in
  let fp1 = Markov.first_passage dk ~start:0 ~target:1 ~horizon:4 in
  Alcotest.(check (array (float 1e-12))) "hit 1 at step 1"
    [| 1.0; 0.0; 0.0; 0.0 |] fp1;
  let fp0 = Markov.first_passage dk ~start:0 ~target:0 ~horizon:4 in
  Alcotest.(check (array (float 1e-12))) "return to 0 at step 2"
    [| 0.0; 1.0; 0.0; 0.0 |] fp0

let test_first_passage_sums_to_hit_probability () =
  let step = Pmf.of_assoc [ (-1, 0.5); (1, 0.5) ] in
  let k = Markov.of_step ~step ~drift:0 ~lo:(-60) ~hi:60 in
  let fp =
    Markov.first_passage (Markov.Dense.of_kernel k) ~start:0 ~target:3
      ~horizon:200
  in
  let total = Array.fold_left ( +. ) 0.0 fp in
  (* Symmetric walk is recurrent: hit probability tends to 1 (slowly). *)
  check_bool "substantial hit mass" true (total > 0.8);
  check_bool "below 1" true (total <= 1.0 +. 1e-9);
  (* Parity: cannot hit an odd-distance state at even steps. *)
  check_float "parity step 2" 0.0 fp.(1)

let test_first_passage_vs_monte_carlo () =
  let step = Pmf.of_assoc [ (-1, 0.25); (0, 0.5); (1, 0.25) ] in
  let k = Markov.of_step ~step ~drift:0 ~lo:(-40) ~hi:40 in
  let fp =
    Markov.first_passage (Markov.Dense.of_kernel k) ~start:0 ~target:2
      ~horizon:10
  in
  let r = rng 23 in
  let simulate () =
    let rec go pos d =
      if d > 10 then false
      else begin
        let pos = pos + Pmf.sample step r in
        if pos = 2 then d <= 10 else go pos (d + 1)
      end
    in
    go 0 1
  in
  let freq = monte_carlo ~trials:30_000 simulate in
  let total = Array.fold_left ( +. ) 0.0 fp in
  check_float ~eps:0.01 "first-passage mass within 10 steps" freq total

let test_marginal_mass_conservation () =
  let step = Pmf.of_assoc [ (-1, 0.5); (1, 0.5) ] in
  let k = Markov.of_step ~step ~drift:0 ~lo:(-30) ~hi:30 in
  let m = Markov.marginal k ~start:0 ~horizon:10 in
  let mass d = Array.fold_left ( +. ) 0.0 m.(d) in
  check_float ~eps:1e-9 "no loss within window (10 steps, window 30)" 1.0
    (mass 9);
  (* Marginal at step 2 matches the 2-fold convolution. *)
  let conv = Convolve.pair step step in
  check_float ~eps:1e-12 "against convolution" (Pmf.prob conv 2)
    m.(1).(2 + 30)

let test_all_models_normalised () =
  (* Every predictor's conditional law must stay a probability measure at
     every horizon, including after observations. *)
  let models =
    [
      ("offline", Offline.create [| 3; 1; 4; 1; 5; 9; 2; 6 |]);
      ("stationary", Stationary.create (Pmf.of_assoc [ (1, 0.25); (2, 0.75) ]));
      ( "trend",
        Linear_trend.linear ~time:(-1) ~speed:2 ~offset:(-5)
          ~noise:(Dist.discretized_normal ~sigma:1.5 ~bound:7)
          () );
      ( "walk",
        Random_walk.create ~start:0 ~drift:1
          ~step:(Dist.discretized_normal ~sigma:1.0 ~bound:4)
          () );
      ("ar1", Ar1.create ~start:10 { Ar1.phi0 = 2.0; phi1 = 0.5; sigma = 2.0 });
    ]
  in
  List.iter
    (fun (name, p) ->
      let p = p.Predictor.observe 3 in
      List.iter
        (fun delta ->
          let pmf = p.Predictor.pmf delta in
          check_float ~eps:1e-6
            (Printf.sprintf "%s normalised at delta %d" name delta)
            1.0 (Pmf.total pmf))
        [ 1; 2; 5 ])
    models

let suite =
  [
    Alcotest.test_case "all models normalised" `Quick
      test_all_models_normalised;
    Alcotest.test_case "offline point masses" `Quick test_offline_pointmass;
    Alcotest.test_case "offline horizon check" `Quick test_offline_out_of_range;
    Alcotest.test_case "stationary invariance" `Quick
      test_stationary_time_invariant;
    Alcotest.test_case "linear trend windows" `Quick test_linear_trend_shifts;
    Alcotest.test_case "linear trend sampling" `Quick
      test_linear_trend_sampling;
    Alcotest.test_case "walk conditional pmfs" `Quick
      test_random_walk_conditional;
    Alcotest.test_case "walk pure drift" `Quick test_random_walk_drift;
    Alcotest.test_case "walk vs simulation" `Slow
      test_random_walk_matches_convolution_sampling;
    Alcotest.test_case "ar1 conditional moments" `Quick
      test_ar1_conditional_moments;
    Alcotest.test_case "ar1 long-horizon stationarity" `Quick
      test_ar1_pmf_long_horizon_is_stationary;
    Alcotest.test_case "ar1 parameter validation" `Quick
      test_ar1_rejects_bad_phi;
    Alcotest.test_case "MLE recovers AR(1)" `Slow test_fit_recovers_parameters;
    Alcotest.test_case "MLE on a deterministic recursion" `Quick
      test_fit_deterministic_line;
    Alcotest.test_case "Yule-Walker recovers AR(1)" `Slow
      test_yule_walker_recovers_ar1;
    Alcotest.test_case "Yule-Walker higher orders vanish" `Slow
      test_yule_walker_higher_orders_vanish;
    Alcotest.test_case "AIC flat beyond true order" `Slow
      test_aic_flat_beyond_true_order;
    Alcotest.test_case "first passage: two-state cycle" `Quick
      test_first_passage_two_state;
    Alcotest.test_case "first passage: mass and parity" `Quick
      test_first_passage_sums_to_hit_probability;
    Alcotest.test_case "first passage vs monte carlo" `Slow
      test_first_passage_vs_monte_carlo;
    Alcotest.test_case "marginal conservation" `Quick
      test_marginal_mass_conservation;
  ]
