open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Helpers

let dist = Pmf.of_assoc [ (0, 0.2); (1, 0.3); (2, 0.4); (5, 0.1) ]

let test_match_prob () =
  check_float ~eps:1e-12 "band 0 = point" 0.3 (Band.match_prob dist ~value:1 ~band:0);
  check_float ~eps:1e-12 "band 1 covers 0..2" 0.9
    (Band.match_prob dist ~value:1 ~band:1);
  check_float ~eps:1e-12 "band 5 covers all" 1.0
    (Band.match_prob dist ~value:2 ~band:5);
  Alcotest.check_raises "negative band"
    (Invalid_argument "Band.match_prob: negative band") (fun () ->
      ignore (Band.match_prob dist ~value:0 ~band:(-1)))

let test_band_ecb_reduces_to_equijoin () =
  let partner = Stationary.create dist in
  let equi = Ecb.joining ~partner ~value:2 ~horizon:6 in
  let band0 = Band.ecb ~partner ~value:2 ~band:0 ~horizon:6 in
  Alcotest.(check (array (float 1e-12))) "band 0 = Lemma 1" equi band0

let test_band_ecb_dominates_narrower () =
  let partner = Stationary.create dist in
  let wide = Band.ecb ~partner ~value:1 ~band:2 ~horizon:8 in
  let narrow = Band.ecb ~partner ~value:1 ~band:1 ~horizon:8 in
  check_bool "wider band dominates" true (Dominance.dominates wide narrow)

let test_band_hvalue_reduces () =
  let partner = Stationary.create dist in
  let l = Lfun.exp_ ~alpha:5.0 in
  check_float ~eps:1e-12 "band 0 H = joining H"
    (Hvalue.joining ~partner ~l ~value:2)
    (Band.hvalue ~partner ~l ~value:2 ~band:0)

let test_band_sim_counts () =
  (* Cached S(5) with band 1 matches R arrivals 4, 5 and 6. *)
  let trace = Trace.of_values ~r:[| -9; 4; 5; 6; 8 |] ~s:[| 5; -1; -2; -3; -4 |] in
  let s5 = Tuple.make ~side:Tuple.S ~value:5 ~arrival:0 in
  let keep_s5 =
    Ssj_conform.Ref_sim.plan ~name:"keep-s5"
      (fun ~now:_ ~cached:_ ~arrivals:_ ~capacity:_ -> [ s5 ])
  in
  let run band =
    (Ssj_engine.Join_sim.run ~trace ~policy:keep_s5 ~capacity:1 ~band ())
      .Ssj_engine.Join_sim
      .total_results
  in
  check_int "equijoin" 1 (run 0);
  check_int "band 1" 3 (run 1);
  check_int "band 3" 4 (run 3)

let test_band_opt_offline () =
  let trace = Trace.of_values ~r:[| -9; 4; 6 |] ~s:[| 5; -1; -2 |] in
  check_int "equijoin optimum" 0
    (Opt_offline.max_results ~trace ~capacity:1 ());
  check_int "band-1 optimum" 2
    (Opt_offline.max_results ~band:1 ~trace ~capacity:1 ())

(* At the ends of the int range: a band probe must not wrap round to an
   empty range, and |c - a| must not be computed by subtracting. *)
let test_band_int_extremes () =
  (* Each trace holds one band-1 match; the cache keeps everything. *)
  List.iter
    (fun (label, r, s) ->
      let trace = Trace.of_values ~r ~s in
      check_int (label ^ ": engine") 1
        (Ssj_engine.Join_sim.run ~trace ~policy:(Baselines.prob ())
           ~capacity:4 ~band:1 ())
          .Ssj_engine.Join_sim.total_results;
      check_int (label ^ ": reference") 1
        (Ssj_conform.Ref_sim.run ~trace ~policy:(Baselines.prob ())
           ~capacity:4 ~band:1 ())
          .Ssj_conform.Ref_sim.total_results;
      check_int (label ^ ": OPT-offline") 1
        (Opt_offline.max_results ~band:1 ~trace ~capacity:4 ()))
    [
      ("min_int", [| min_int; 0; 0 |], [| 7; min_int; 7 |]);
      ("max_int probed", [| max_int - 1; 0 |], [| 7; max_int |]);
      ("max_int kept", [| max_int; 0 |], [| 7; max_int - 1 |]);
    ];
  let cached = [ Tuple.make ~side:Tuple.R ~value:min_int ~arrival:0 ] in
  let zero = Tuple.make ~side:Tuple.S ~value:0 ~arrival:1 in
  check_int "reference: min_int does not meet 0 at band 0" 0
    (Ssj_conform.Ref_sim.count_matches ~window:None ~band:0 ~now:1 cached
       zero)

let test_band_heeb_beats_rand () =
  (* Trend workload under band-2 semantics. *)
  let cfg = Ssj_workload.Config.tower () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let trace = Trace.generate ~r ~s ~rng:(rng 33) ~length:800 in
  let band = 2 in
  let run policy =
    (Ssj_engine.Join_sim.run ~trace ~policy ~capacity:8 ~band ())
      .Ssj_engine.Join_sim
      .total_results
  in
  let heeb =
    let r, s = Ssj_workload.Config.predictors cfg in
    Band.heeb ~r ~s
      ~l:(Lfun.exp_ ~alpha:(Ssj_workload.Config.alpha cfg))
      ~band ()
  in
  let h = run heeb in
  let rnd = run (Baselines.rand ~rng:(rng 2) ()) in
  check_bool "band HEEB > RAND" true (h > rnd)

let suite =
  [
    Alcotest.test_case "match probabilities" `Quick test_match_prob;
    Alcotest.test_case "band-0 ECB = Lemma 1" `Quick
      test_band_ecb_reduces_to_equijoin;
    Alcotest.test_case "wider bands dominate" `Quick
      test_band_ecb_dominates_narrower;
    Alcotest.test_case "band-0 H = joining H" `Quick test_band_hvalue_reduces;
    Alcotest.test_case "band simulator counting" `Quick test_band_sim_counts;
    Alcotest.test_case "band OPT-offline" `Quick test_band_opt_offline;
    Alcotest.test_case "band joins at the int extremes" `Quick
      test_band_int_extremes;
    Alcotest.test_case "band HEEB beats RAND" `Slow test_band_heeb_beats_rand;
  ]
