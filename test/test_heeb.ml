open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Helpers

let tower = Ssj_workload.Config.tower ()

let tower_trace ~length ~seed =
  let r, s = Ssj_workload.Config.predictors tower in
  Trace.generate ~r ~s ~rng:(rng seed) ~length

let run_joining policy ~trace ~capacity =
  Ssj_engine.Join_sim.run ~trace ~policy ~capacity ()

let heeb_with mode =
  let r, s = Ssj_workload.Config.predictors tower in
  let l = Lfun.exp_ ~alpha:(Ssj_workload.Config.alpha tower) in
  Heeb.joining ~r ~s ~l ~mode ()

let test_modes_agree () =
  (* Direct and trend-memoised HEEB are the same policy computed two
     ways: identical decisions, identical counts. *)
  let trace = tower_trace ~length:400 ~seed:3 in
  let count mode =
    (run_joining (heeb_with mode) ~trace ~capacity:8).Ssj_engine.Join_sim
      .total_results
  in
  check_int "memo = direct" (count `Direct) (count (`Memo_trend 1))

(* The trend memo keys a candidate by [((value - speed·now) lsl 1) lor
   side], so [min_int] is a reachable key; the memo must serve it like any
   other and still match the direct policy.
   - An R tuple at trend offset -2^61 has key [min_int].  Its H is 0, so
     this run mostly checks that the key is accepted.
   - On TOWER (speed 1) the memo speed [1 - 2^61] is as good as 1: the
     key wraps to [2·offset + 2^62·(now mod 2)], so at every odd step an R
     tuple on the trend has key [min_int], and its H is far from 0.  A
     table that read an empty slot for [min_int] would score it 0. *)
let test_memo_trend_min_int_key () =
  let speed = tower.Ssj_workload.Config.speed in
  let count trace mode =
    (run_joining (heeb_with mode) ~trace ~capacity:8).Ssj_engine.Join_sim
      .total_results
  in
  let trace = tower_trace ~length:120 ~seed:5 in
  let n = Trace.length trace in
  let value side t = (Trace.tuple trace side t).Tuple.value in
  let r = Array.init n (value Tuple.R) and s = Array.init n (value Tuple.S) in
  let t0 = 40 in
  r.(t0) <- (speed * t0) - (1 lsl 61);
  let extreme = Trace.of_values ~r ~s in
  check_int "offset -2^61: memo = direct" (count extreme `Direct)
    (count extreme (`Memo_trend speed));
  check_int "wrapped keys: memo = direct" (count trace `Direct)
    (count trace (`Memo_trend (speed - (1 lsl 61))))

let test_heeb_stationary_matches_prob_model () =
  (* Section 5.2: for stationary independent streams, HEEB's ranking
     reduces to PROB's (the provably optimal policy). Identical ranking
     means identical join counts when tie-breaks agree. *)
  let dist =
    Pmf.of_assoc [ (1, 0.05); (2, 0.15); (3, 0.30); (4, 0.50) ]
  in
  let make_preds () =
    (Stationary.create ~time:(-1) dist, Stationary.create ~time:(-1) dist)
  in
  let r, s = make_preds () in
  let trace = Trace.generate ~r ~s ~rng:(rng 11) ~length:600 in
  let heeb =
    let r, s = make_preds () in
    Heeb.joining ~r ~s ~l:(Lfun.exp_ ~alpha:10.0) ()
  in
  let prob =
    Baselines.prob_model
      ~partner_prob:(fun t -> Pmf.prob dist t.Tuple.value)
      ()
  in
  let c_heeb = (run_joining heeb ~trace ~capacity:5).Ssj_engine.Join_sim.total_results in
  let c_prob = (run_joining prob ~trace ~capacity:5).Ssj_engine.Join_sim.total_results in
  check_int "HEEB = PROB-model on stationary input" c_prob c_heeb

let test_heeb_caching_offline_equals_lfd () =
  (* Section 5.1: offline caching ECBs are single-step functions ordered
     by next reference; HEEB with any admissible L makes LFD decisions. *)
  let r = rng 21 in
  for _ = 1 to 10 do
    let n = 40 in
    let reference = Array.init n (fun _ -> Rng.int r 6) in
    let capacity = 2 in
    let heeb =
      Heeb.caching
        ~reference:(Offline.create reference)
        ~l:(Lfun.exp_ ~alpha:8.0) ()
    in
    let lfd = Classic.lfd ~reference in
    let run p =
      (Ssj_engine.Cache_sim.run ~reference ~policy:p ~capacity ())
        .Ssj_engine.Cache_sim.hits
    in
    check_int "HEEB(offline) = LFD hits" (run lfd) (run heeb)
  done

let test_heeb_caching_stationary_equals_lfu_model () =
  let dist = Pmf.of_assoc [ (1, 0.5); (2, 0.3); (3, 0.15); (4, 0.05) ] in
  let reference =
    let p = Stationary.create dist in
    fst (Predictor.generate p (rng 31) 500)
  in
  let heeb =
    Heeb.caching ~reference:(Stationary.create dist) ~l:(Lfun.exp_ ~alpha:10.0)
      ()
  in
  let a0 = Classic.lfu_model ~prob:(fun v -> Pmf.prob dist v) in
  let run p =
    (Ssj_engine.Cache_sim.run ~reference ~policy:p ~capacity:2 ())
      .Ssj_engine.Cache_sim.hits
  in
  check_int "HEEB = A0 on stationary reference" (run a0) (run heeb)

(* A random walk's caching H is a first passage relative to its running
   value, wherever the walk has gone: a reference 1000 values from the
   walk's start scores every nearby candidate above 0 (a kernel fixed
   at start +- 400 scored them all 0). *)
let test_walk_caching_h_follows_the_walk () =
  let step = Pmf.of_assoc [ (-1, 1.0); (0, 2.0); (1, 1.0) ] in
  let walk = Random_walk.create ~start:0 ~drift:0 ~step () in
  let heeb = Heeb.caching ~reference:walk ~l:(Lfun.exp_ ~alpha:4.0) () in
  let scored = ref [] in
  let probe =
    {
      heeb with
      Policy.access =
        (fun ~now ~cached ~value ~hit ~capacity ->
          let drop = heeb.Policy.access ~now ~cached ~value ~hit ~capacity in
          if drop <> Policy.no_drop then
            scored := Array.to_list (Array.sub cached.Policy.scores 0 (cached.n + 1))
              @ !scored;
          drop);
    }
  in
  ignore
    (Ssj_engine.Cache_sim.run ~reference:[| 1000; 1001; 1002; 1000; 999 |]
       ~policy:probe ~capacity:2 ());
  check_int "candidates scored" 9 (List.length !scored);
  List.iter (fun h -> check_bool "H > 0 near the walk" true (h > 0.0)) !scored

let test_caching_fn_scores_full_misses_only () =
  (* A counting scorer: hits and misses with room score nothing; a full
     miss stages the scorer once and scores the m cached values and the
     fetched one exactly once each. *)
  let stages = ref 0 and scores = ref 0 in
  let h ~now:_ ~last =
    incr stages;
    fun v ->
      incr scores;
      float_of_int ((v * 7) + last)
  in
  let m = 3 in
  let sim = Ssj_engine.Cache_sim.create ~policy:(Heeb.caching_fn ~h ()) ~capacity:m in
  let access now value =
    stages := 0;
    scores := 0;
    let hit = Ssj_engine.Cache_sim.access sim ~now value in
    (hit, !stages, !scores)
  in
  let expect what now value (hit, stages, scores) =
    Alcotest.(check (triple bool int int)) what (hit, stages, scores)
      (access now value)
  in
  expect "miss with room" 0 10 (false, 0, 0);
  expect "miss with room" 1 11 (false, 0, 0);
  expect "hit" 2 10 (true, 0, 0);
  expect "miss with room" 3 12 (false, 0, 0);
  expect "hit, full cache" 4 11 (true, 0, 0);
  expect "full miss" 5 13 (false, 1, m + 1);
  check_int "still full" m (List.length (Ssj_engine.Cache_sim.contents sim));
  expect "full miss" 6 14 (false, 1, m + 1)

let test_joining_curves_policy_runs () =
  let w = Ssj_workload.Config.walk () in
  let r, s = Ssj_workload.Config.walk_predictors w in
  let trace = Trace.generate ~r ~s ~rng:(rng 51) ~length:300 in
  let policy = Ssj_workload.Factory.walk_heeb w ~capacity:8 () in
  let result = run_joining policy ~trace ~capacity:8 in
  check_bool "produces results" true (result.Ssj_engine.Join_sim.total_results > 0)

(* HEEB(h1) scoring through [Interp.Curve.eval], as a reference for the
   table reads of [Heeb.joining_curves]. *)
let joining_curves_by_eval ~h_r_tuples ~h_s_tuples =
  let r_last = ref None and s_last = ref None in
  let note (t : Tuple.t) =
    match t.side with
    | Tuple.R -> r_last := Some t.value
    | Tuple.S -> s_last := Some t.value
  in
  Policy.scored ~name:"HEEB(h1) by eval"
    ~observe:(fun ~r ~s ->
      note r;
      note s)
    (fun ~now:_ ~capacity:_ ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        let is_r = uids.(i) land 1 = 0 in
        scores.(i) <-
          (match if is_r then !s_last else !r_last with
          | None -> 0.0
          | Some x ->
            Interp.Curve.eval
              (if is_r then h_r_tuples else h_s_tuples)
              (values.(i) - x))
      done)

(* The table reads keep what [Interp.Curve.eval] keeps, step by step, on
   WALK traces at k = 10 and 100 with two different curves (alpha 10 and
   20, so a swapped side shows).  Every 50 steps one side arrives at ±1e9 or within 7 of
   ±2^62 while the other arrives at 0: offsets whose distance to the
   grid's lo overflows unless the offset is clamped first.  The first
   four steps bring arrivals of one side only, so the other side's
   candidates have no partner position yet. *)
let test_joining_curves_table_equals_eval () =
  let w = Ssj_workload.Config.walk () in
  let r, s = Ssj_workload.Config.walk_predictors w in
  let curve alpha =
    Precompute.walk_joining_curve ~step:w.Ssj_workload.Config.step
      ~drift:w.Ssj_workload.Config.drift ~l:(Lfun.exp_ ~alpha) ~lo:(-100)
      ~hi:100
  in
  let extremes =
    [| 1_000_000_000; -1_000_000_000; max_int - 7; min_int + 7; max_int; min_int |]
  in
  let length = 400 and lonely = 4 in
  let h_r_tuples = curve 10.0 and h_s_tuples = curve 20.0 in
  List.iter
    (fun capacity ->
      List.iter
        (fun (seed, side) ->
          let trace = Trace.generate ~r ~s ~rng:(rng seed) ~length in
          let table = Heeb.joining_curves ~h_r_tuples ~h_s_tuples () in
          let reference = joining_curves_by_eval ~h_r_tuples ~h_s_tuples in
          let src = ref (Policy.buffer ()) in
          for t = 0 to length - 1 do
            let value side = (Trace.tuple trace side t).Tuple.value in
            let rv, sv =
              match t mod 50 with
              | 10 -> (extremes.(t / 50 mod 6), 0)
              | 30 -> (0, extremes.(t / 50 mod 6))
              | _ -> (value Tuple.R, value Tuple.S)
            in
            let r, s =
              if t < lonely then
                ( Tuple.make ~side ~value:rv ~arrival:(2 * t),
                  Tuple.make ~side ~value:sv ~arrival:((2 * t) + 1) )
              else
                ( Tuple.make ~side:Tuple.R ~value:rv ~arrival:(t + lonely),
                  Tuple.make ~side:Tuple.S ~value:sv ~arrival:(t + lonely) )
            in
            let step (p : Policy.join) =
              let dst = Policy.buffer () in
              (Option.get p.Policy.fast) ~src:!src ~dst ~now:t ~r ~s ~capacity;
              Policy.tuples dst
            in
            let kept = step table in
            if kept <> step reference then
              Alcotest.failf "k=%d seed %d step %d: table and eval keep \
                              different tuples" capacity seed t;
            src := Policy.of_tuples kept
          done)
        [ (1, Tuple.R); (2, Tuple.S); (3, Tuple.R) ])
    [ 10; 100 ]

let test_adaptive_alpha_tracks_fixed () =
  (* The adaptive-alpha variant should be competitive with the hand-tuned
     alpha on TOWER (within 10%), and its lifetime estimate must settle in
     a sane range. *)
  let trace = tower_trace ~length:1200 ~seed:6 in
  let capacity = 10 in
  let count policy =
    (run_joining policy ~trace ~capacity).Ssj_engine.Join_sim.total_results
  in
  let fixed = count (Ssj_workload.Factory.trend_heeb tower ()) in
  let adaptive =
    let r, s = Ssj_workload.Config.predictors tower in
    count (Heeb.joining_adaptive ~r ~s ())
  in
  check_bool "within 10% of tuned alpha" true
    (float_of_int adaptive >= 0.9 *. float_of_int fixed)

let test_heeb_beats_baselines_on_tower () =
  (* The headline claim at working scale: HEEB > PROB and LIFE on TOWER. *)
  let trace = tower_trace ~length:1500 ~seed:8 in
  let capacity = 10 in
  let count policy = (run_joining policy ~trace ~capacity).Ssj_engine.Join_sim.total_results in
  let heeb = count (Ssj_workload.Factory.trend_heeb tower ()) in
  let lifetime = Ssj_workload.Config.lifetime tower in
  let prob = count (Baselines.prob ~lifetime ()) in
  let life = count (Baselines.life ~lifetime ()) in
  check_bool "HEEB > PROB" true (heeb > prob);
  check_bool "HEEB > LIFE" true (heeb > life)

let suite =
  [
    Alcotest.test_case "modes agree" `Quick test_modes_agree;
    Alcotest.test_case "trend memo serves key min_int" `Quick
      test_memo_trend_min_int_key;
    Alcotest.test_case "stationary HEEB = PROB (Section 5.2)" `Quick
      test_heeb_stationary_matches_prob_model;
    Alcotest.test_case "offline caching HEEB = LFD (Section 5.1)" `Slow
      test_heeb_caching_offline_equals_lfd;
    Alcotest.test_case "stationary caching HEEB = A0 (Section 5.2)" `Quick
      test_heeb_caching_stationary_equals_lfu_model;
    Alcotest.test_case "walk caching H follows the running value" `Quick
      test_walk_caching_h_follows_the_walk;
    Alcotest.test_case "caching_fn scores on full misses only" `Quick
      test_caching_fn_scores_full_misses_only;
    Alcotest.test_case "walk curve policy" `Quick
      test_joining_curves_policy_runs;
    Alcotest.test_case "walk curve table = Curve.eval" `Quick
      test_joining_curves_table_equals_eval;
    Alcotest.test_case "adaptive alpha tracks fixed" `Slow
      test_adaptive_alpha_tracks_fixed;
    Alcotest.test_case "HEEB beats baselines on TOWER" `Slow
      test_heeb_beats_baselines_on_tower;
  ]
