open Ssj_prob
open Ssj_model
open Ssj_core
open Helpers

let stationary p_target =
  Stationary.create (Pmf.of_assoc [ (1, p_target); (0, 1.0 -. p_target) ])

let test_joining_stationary_closed_form () =
  (* H = p * sum e^{-d/a} = p * r/(1-r). *)
  let alpha = 4.0 in
  let l = Lfun.exp_ ~alpha in
  let p = 0.3 in
  let h = Hvalue.joining ~partner:(stationary p) ~l ~value:1 in
  let r = exp (-1.0 /. alpha) in
  check_float ~eps:1e-9 "geometric sum" (p *. r /. (1.0 -. r)) h

let test_joining_rejects_divergent_l () =
  Alcotest.check_raises "L_inf diverges for joining"
    (Invalid_argument
       "Hvalue.joining: L_inf has no finite horizon (caching-only L)")
    (fun () ->
      ignore (Hvalue.joining ~partner:(stationary 0.5) ~l:Lfun.inf ~value:1))

let test_caching_stationary_inf_is_hit_probability () =
  (* With L_inf, H = probability of ever being referenced = 1 for any
     value with positive stationary probability. *)
  let h =
    Hvalue.caching_independent ~reference:(stationary 0.2) ~l:Lfun.inf ~value:1
  in
  check_float ~eps:1e-6 "ever referenced" 1.0 h;
  let h0 =
    Hvalue.caching_independent ~reference:(stationary 0.2) ~l:Lfun.inf ~value:9
  in
  check_float "never referenced" 0.0 h0

let test_caching_stationary_exp_closed_form () =
  (* First-reference at step d has probability p (1-p)^{d-1};
     H = sum_d p (1-p)^{d-1} e^{-d/a} = p r / (1 - (1-p) r). *)
  let alpha = 6.0 and p = 0.25 in
  let l = Lfun.exp_ ~alpha in
  let h =
    Hvalue.caching_independent ~reference:(stationary p) ~l ~value:1
  in
  let r = exp (-1.0 /. alpha) in
  check_float ~eps:1e-9 "closed form" (p *. r /. (1.0 -. ((1.0 -. p) *. r))) h

let test_caching_markov_agrees_with_independent () =
  let dist = Pmf.of_assoc [ (0, 0.55); (1, 0.45) ] in
  let kernel = { Markov.lo = 0; hi = 1; row = (fun _ -> dist) } in
  let l = Lfun.exp_ ~alpha:5.0 in
  let via_markov =
    Hvalue.caching_markov ~kernel:(Markov.Dense.of_kernel kernel) ~start:0 ~l
      ~value:1
  in
  let via_independent =
    Hvalue.caching_independent ~reference:(Stationary.create dist) ~l ~value:1
  in
  check_float ~eps:1e-9 "agreement" via_independent via_markov

(* --- Corollary 3: time-incremental joining --------------------------- *)

let test_corollary3_stationary () =
  let alpha = 4.0 in
  let l = Lfun.exp_ ~alpha in
  let p = 0.3 in
  let pred = stationary p in
  let h_prev = Hvalue.joining ~partner:pred ~l ~value:1 in
  (* One step later the predictor state is unchanged (stationary); the
     update must reproduce the direct value. *)
  let updated = Hvalue.step_joining_exp ~alpha ~h_prev ~p_now:p in
  let direct = Hvalue.joining ~partner:(pred.Predictor.observe 0) ~l ~value:1 in
  check_float ~eps:1e-9 "Corollary 3" direct updated

let test_corollary3_linear_trend () =
  let alpha = 7.0 in
  let l = Lfun.exp_ ~alpha in
  let noise = Dist.discretized_normal ~sigma:2.0 ~bound:8 in
  let pred = Linear_trend.linear ~time:0 ~speed:1 ~offset:0 ~noise () in
  let value = 5 in
  let h_prev = Hvalue.joining ~partner:pred ~l ~value in
  let p_now = Predictor.prob pred ~delta:1 value in
  let updated = Hvalue.step_joining_exp ~alpha ~h_prev ~p_now in
  let direct =
    Hvalue.joining ~partner:(pred.Predictor.observe 0) ~l ~value
  in
  check_float ~eps:1e-7 "Corollary 3 under a trend" direct updated

(* --- Corollary 4: time-incremental caching --------------------------- *)

let test_corollary4_stationary () =
  let alpha = 5.0 in
  let l = Lfun.exp_ ~alpha in
  let p = 0.25 in
  let pred = stationary p in
  let value = 1 in
  let h_prev = Hvalue.caching_independent ~reference:pred ~l ~value in
  let updated = Hvalue.step_caching_exp ~alpha ~h_prev ~p_now:p in
  let direct =
    Hvalue.caching_independent ~reference:(pred.Predictor.observe 0) ~l ~value
  in
  check_float ~eps:1e-9 "Corollary 4" direct updated

let test_corollary4_nonstationary_independent () =
  (* A trend makes per-step reference probabilities vary; Corollary 4
     still holds for independent processes. *)
  let alpha = 6.0 in
  let l = Lfun.exp_ ~alpha in
  let noise = Dist.uniform ~lo:(-4) ~hi:4 in
  let pred = Linear_trend.linear ~time:0 ~speed:1 ~offset:0 ~noise () in
  let value = 6 in
  let h_prev = Hvalue.caching_independent ~reference:pred ~l ~value in
  let p_now = Predictor.prob pred ~delta:1 value in
  let updated = Hvalue.step_caching_exp ~alpha ~h_prev ~p_now in
  let direct =
    Hvalue.caching_independent ~reference:(pred.Predictor.observe 0) ~l ~value
  in
  check_float ~eps:1e-7 "Corollary 4 under a trend" direct updated

(* --- Theorem 4: dominance is preserved by H -------------------------- *)

let prop_theorem4 =
  qcheck ~count:200 "Theorem 4: ECB dominance implies H ordering"
    QCheck2.Gen.(
      let* px = float_range 0.05 0.45 in
      let* py = float_range 0.05 0.45 in
      let* alpha = float_range 1.5 20.0 in
      return (px, py, alpha))
    (fun (px, py, alpha) ->
      (* Stationary partners: B_x dominates B_y iff px >= py; the H
         ordering must agree for the shared L_exp. *)
      let l = Lfun.exp_ ~alpha in
      let dist p = Pmf.of_assoc [ (1, p); (0, 1.0 -. p) ] in
      let hx =
        Hvalue.joining ~partner:(Stationary.create (dist px)) ~l ~value:1
      in
      let hy =
        Hvalue.joining ~partner:(Stationary.create (dist py)) ~l ~value:1
      in
      if px >= py then hx >= hy -. 1e-12 else hy >= hx -. 1e-12)

let test_theorem4_general_ecbs () =
  (* Direct statement: build H from ECB differences with any admissible
     L; dominance must carry over. *)
  let bx = [| 0.3; 0.5; 0.9; 1.0 |] in
  let by = [| 0.2; 0.5; 0.6; 0.8 |] in
  let h_of ecb (l : Lfun.t) =
    let acc = ref (ecb.(0) *. l.Lfun.l 1) in
    for d = 2 to Array.length ecb do
      acc := !acc +. ((ecb.(d - 1) -. ecb.(d - 2)) *. l.Lfun.l d)
    done;
    !acc
  in
  List.iter
    (fun l ->
      check_bool
        (Printf.sprintf "H ordering under %s" l.Lfun.name)
        true
        (h_of bx l >= h_of by l -. 1e-12))
    [ Lfun.fixed 2; Lfun.fixed 4; Lfun.exp_ ~alpha:3.0; Lfun.inv; Lfun.inf ]

let test_value_shift () =
  check_int "shift" 3 (Hvalue.value_shift ~speed:2 ~value:4 ~reference_value:10);
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Hvalue.value_shift: speed does not divide value difference")
    (fun () -> ignore (Hvalue.value_shift ~speed:2 ~value:4 ~reference_value:9))

(* Corollary 5: same offset relative to the moving trend, same H. *)
let test_corollary5 () =
  let l = Lfun.exp_ ~alpha:5.0 in
  let noise = Dist.discretized_normal ~sigma:2.0 ~bound:8 in
  let at_time time =
    Linear_trend.linear ~time ~speed:1 ~offset:0 ~noise ()
  in
  let h1 = Hvalue.joining ~partner:(at_time 10) ~l ~value:12 in
  let h2 = Hvalue.joining ~partner:(at_time 25) ~l ~value:27 in
  check_float ~eps:1e-9 "offset invariance" h1 h2

let suite =
  [
    Alcotest.test_case "stationary joining closed form" `Quick
      test_joining_stationary_closed_form;
    Alcotest.test_case "joining rejects divergent L" `Quick
      test_joining_rejects_divergent_l;
    Alcotest.test_case "caching with L_inf = hit probability" `Quick
      test_caching_stationary_inf_is_hit_probability;
    Alcotest.test_case "caching closed form" `Quick
      test_caching_stationary_exp_closed_form;
    Alcotest.test_case "markov H agrees with independent" `Quick
      test_caching_markov_agrees_with_independent;
    Alcotest.test_case "Corollary 3 (stationary)" `Quick
      test_corollary3_stationary;
    Alcotest.test_case "Corollary 3 (trend)" `Quick
      test_corollary3_linear_trend;
    Alcotest.test_case "Corollary 4 (stationary)" `Quick
      test_corollary4_stationary;
    Alcotest.test_case "Corollary 4 (trend)" `Quick
      test_corollary4_nonstationary_independent;
    prop_theorem4;
    Alcotest.test_case "Theorem 4 on explicit ECBs" `Quick
      test_theorem4_general_ecbs;
    Alcotest.test_case "value shift bookkeeping" `Quick test_value_shift;
    Alcotest.test_case "Corollary 5 (offset invariance)" `Quick
      test_corollary5;
  ]
