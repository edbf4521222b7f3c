open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Helpers

let test_section7_ranking () =
  (* x2 > x1 > x3 under windowed HEEB; PROB picks x1; LIFE picks x3. *)
  let alpha = 10.0 in
  let score p life = Sliding.stationary_score ~alpha ~p ~remaining_lifetime:life in
  let h1 = score 0.50 1 and h2 = score 0.49 50 and h3 = score 0.01 51 in
  check_bool "x2 first" true (h2 > h1);
  check_bool "x1 second" true (h1 > h3);
  check_bool "PROB prefers x1" true
    (Sliding.prob_score ~p:0.50 ~remaining_lifetime:1
    > Sliding.prob_score ~p:0.49 ~remaining_lifetime:50);
  check_bool "LIFE prefers x3" true
    (Sliding.life_score ~p:0.01 ~remaining_lifetime:51
    > Sliding.life_score ~p:0.50 ~remaining_lifetime:1)

let test_stationary_score_closed_form () =
  (* Matches a direct truncated sum. *)
  let alpha = 7.0 and p = 0.3 and life = 9 in
  let direct = ref 0.0 in
  for d = 1 to life do
    direct := !direct +. (p *. exp (-.float_of_int d /. alpha))
  done;
  check_float ~eps:1e-12 "closed form" !direct
    (Sliding.stationary_score ~alpha ~p ~remaining_lifetime:life);
  check_float "expired" 0.0
    (Sliding.stationary_score ~alpha ~p ~remaining_lifetime:0)

let test_windowed_heeb_policy_agrees_with_scores () =
  (* A stationary workload where the windowed-HEEB policy must prefer the
     long-lived moderately-probable tuple over the expiring popular one. *)
  let dist = Pmf.of_assoc [ (1, 0.50); (2, 0.49); (3, 0.01) ] in
  let window = Window.create ~width:10 in
  let make () = Stationary.create ~time:(-1) dist in
  let policy = Sliding.heeb ~r:(make ()) ~s:(make ()) ~alpha:5.0 ~window () in
  (* Old S tuple with popular value about to expire vs fresh S tuple with
     almost-as-popular value. *)
  let old_popular = Tuple.make ~side:Tuple.S ~value:1 ~arrival:0 in
  let fresh_decent = Tuple.make ~side:Tuple.S ~value:2 ~arrival:9 in
  let kept =
    policy.Policy.select ~now:9 ~cached:[ old_popular ]
      ~arrivals:[ Tuple.make ~side:Tuple.R ~value:3 ~arrival:9; fresh_decent ]
      ~capacity:1
  in
  (match kept with
  | [ t ] -> check_int "keeps the fresh tuple" 2 t.Tuple.value
  | _ -> Alcotest.fail "expected one kept tuple")

let test_windowed_heeb_runs_under_window_semantics () =
  let dist = Pmf.of_assoc (List.init 20 (fun i -> (i, 1.0 /. float_of_int (i + 1)))) in
  let window = Window.create ~width:15 in
  let make () = Stationary.create ~time:(-1) dist in
  let r, s = (make (), make ()) in
  let trace = Trace.generate ~r ~s ~rng:(rng 81) ~length:400 in
  let heeb = Sliding.heeb ~r:(make ()) ~s:(make ()) ~alpha:7.0 ~window () in
  let run policy =
    (Ssj_engine.Join_sim.run ~trace ~policy ~capacity:5 ~window ())
      .Ssj_engine.Join_sim
      .total_results
  in
  let h = run heeb in
  let lifetime = Baselines.Of_window window in
  let p = run (Baselines.prob ~lifetime ()) in
  check_bool "windowed HEEB >= PROB here" true (h >= p)

let test_windowed_ecb_consistency () =
  (* The windowed HEEB score equals the regular H computed with the
     windowed L. *)
  let dist = Pmf.of_assoc [ (4, 0.35); (5, 0.65) ] in
  let pred = Stationary.create dist in
  let base = Lfun.exp_ ~alpha:6.0 in
  let h_direct =
    Hvalue.joining ~partner:pred ~l:(Lfun.windowed base ~remaining:8) ~value:4
  in
  check_float ~eps:1e-12 "windowed score"
    (Sliding.stationary_score ~alpha:6.0 ~p:0.35 ~remaining_lifetime:8)
    h_direct

(* --- QCheck: windowed semantics vs brute-force oracles ---------------- *)

let test_qcheck_windowed_run =
  (* Both engine paths (the buffer step, and the list select run as a
     plan) under window semantics against the naive full-rescan
     reference simulator. *)
  qcheck ~count:120 "windowed runs match the brute-force oracle"
    QCheck2.Gen.(
      quad
        (list_size (int_range 4 30)
           (pair (int_range (-6) 6) (int_range (-6) 6)))
        (int_range 1 5) (int_range 1 8) (int_range 0 2))
    (fun (steps, capacity, width, band) ->
      let r = Array.of_list (List.map fst steps)
      and s = Array.of_list (List.map snd steps) in
      let window = Window.create ~width in
      let warmup = Array.length r / 3 in
      let policies =
        [
          (fun () -> Baselines.prob ());
          (fun () -> Baselines.life ~lifetime:(Baselines.Of_window window) ());
        ]
      in
      List.for_all
        (fun fresh ->
          let engine policy =
            Ssj_engine.Join_sim.run
              ~trace:(Trace.of_values ~r ~s)
              ~policy ~capacity ~warmup ~window ~band ()
          in
          let fast = engine (fresh ()) in
          let listed =
            let p = fresh () in
            engine (Ssj_conform.Ref_sim.plan ~name:p.Policy.name p.Policy.select)
          in
          let oracle =
            Ssj_conform.Ref_sim.run
              ~trace:(Trace.of_values ~r ~s)
              ~policy:(fresh ()) ~capacity ~warmup ~window ~band ()
          in
          fast.Ssj_engine.Join_sim.total_results
          = oracle.Ssj_conform.Ref_sim.total_results
          && fast.Ssj_engine.Join_sim.counted_results
             = oracle.Ssj_conform.Ref_sim.counted_results
          && listed.Ssj_engine.Join_sim.total_results
             = oracle.Ssj_conform.Ref_sim.total_results
          && listed.Ssj_engine.Join_sim.counted_results
             = oracle.Ssj_conform.Ref_sim.counted_results)
        policies)

let test_qcheck_stationary_score =
  qcheck ~count:200 "stationary score equals its truncated sum"
    QCheck2.Gen.(
      triple (float_range 1.0 20.0) (float_range 0.01 0.99) (int_range 0 60))
    (fun (alpha, p, life) ->
      let direct = ref 0.0 in
      for d = 1 to life do
        direct := !direct +. (p *. exp (-.float_of_int d /. alpha))
      done;
      abs_float
        (!direct
        -. Sliding.stationary_score ~alpha ~p ~remaining_lifetime:life)
      < 1e-9)

let test_qcheck_windowed_ecb =
  (* The windowed ECB/HEEB score is the regular H evaluated with the
     window-truncated L, at any remaining lifetime. *)
  qcheck ~count:200 "windowed ECB equals H with windowed L"
    QCheck2.Gen.(
      triple (float_range 2.0 12.0) (float_range 0.05 0.95) (int_range 0 12))
    (fun (alpha, p, remaining) ->
      let dist = Pmf.of_assoc [ (4, p); (5, 1.0 -. p) ] in
      let h =
        Hvalue.joining
          ~partner:(Stationary.create dist)
          ~l:(Lfun.windowed (Lfun.exp_ ~alpha) ~remaining)
          ~value:4
      in
      abs_float
        (h -. Sliding.stationary_score ~alpha ~p ~remaining_lifetime:remaining)
      < 1e-9)

let suite =
  [
    Alcotest.test_case "Section 7 ranking" `Quick test_section7_ranking;
    Alcotest.test_case "closed form" `Quick test_stationary_score_closed_form;
    Alcotest.test_case "policy follows scores" `Quick
      test_windowed_heeb_policy_agrees_with_scores;
    Alcotest.test_case "runs under window semantics" `Quick
      test_windowed_heeb_runs_under_window_semantics;
    Alcotest.test_case "windowed ECB/H consistency" `Quick
      test_windowed_ecb_consistency;
    test_qcheck_windowed_run;
    test_qcheck_stationary_score;
    test_qcheck_windowed_ecb;
  ]
