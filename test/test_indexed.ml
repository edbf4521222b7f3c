(* The optimised simulation core against its reference paths: the
   buffer step vs the same policy run as a plan over lists, the
   parallel runner vs sequential execution, and the selection routine's
   counted work and NaN handling.  The selection routine and the join
   index are compared with their references by the registered oracles
   ([oracle:keep-top/bounded-vs-sort],
   [oracle:join-sim/indexed-vs-listscan]), which [conform] runs. *)

open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload
open Helpers

let tup side value arrival = Tuple.make ~side ~value ~arrival

(* --- scored step vs the same policy run as a plan ------------------- *)

let tower = Config.tower ()

let tower_trace length seed =
  let r, s = Config.predictors tower in
  Trace.generate ~r ~s ~rng:(Rng.create seed) ~length

(* The scored step against the same policy run as a plan: wrapped in
   [Ref_sim.plan], the engine steps its list [select] (a list adapter
   over the same step) through the plan's step, which rebuilds tuples
   and computes the diff from the returned plan; the list-scan
   reference runs it too, checking every selection.  Fresh policy
   instances with the same seed draw the same randomness, so all three
   executions must produce identical counts.  Capacity 1 keeps the
   candidate set at three times the capacity. *)
let test_fast_matches_list () =
  let trace = tower_trace 400 5 in
  List.iter
    (fun (capacity, window, band) ->
      List.iter
        (fun (name, mk) ->
          let run policy =
            Join_sim.run ~trace ~policy ~capacity ~warmup:40 ?window ~band ()
          in
          let plan () =
            let p = mk () in
            Ssj_conform.Ref_sim.plan ~name:p.Policy.name p.Policy.select
          in
          let fast = run (mk ()) and slow = run (plan ()) in
          let listed =
            Ssj_conform.Ref_sim.run ~trace ~policy:(mk ()) ~capacity ~warmup:40
              ?window ~band ()
          in
          let label =
            Printf.sprintf "%s cap=%d band=%d%s" name capacity band
              (match window with None -> "" | Some _ -> " win")
          in
          check_int (label ^ " total") slow.Join_sim.total_results
            fast.Join_sim.total_results;
          check_int (label ^ " counted") slow.Join_sim.counted_results
            fast.Join_sim.counted_results;
          check_int (label ^ " listed") listed.Ssj_conform.Ref_sim.counted_results
            fast.Join_sim.counted_results)
        (Factory.trend_policies tower ~seed:11 ()))
    [
      (10, None, 0);
      (1, None, 0);
      (8, Some (Window.create ~width:12), 1);
    ]

(* --- parallel runner determinism ------------------------------------ *)

let test_parallel_map () =
  let input = Array.init 23 (fun i -> i) in
  let seq = Array.map (fun i -> (i * i) + 1) input in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "map jobs=%d" jobs)
        true
        (Parallel.map ~jobs (fun i -> (i * i) + 1) input = seq))
    [ 1; 2; 4 ];
  check_bool "exceptions propagate" true
    (match Parallel.map ~jobs:3 (fun i -> if i = 7 then failwith "boom" else i)
             input
     with
    | _ -> false
    | exception Failure msg -> msg = "boom")

let test_map_raising_job () =
  (* A raising job must propagate (not hang) and leave no orphaned
     domains behind: the very next Parallel.map must work. *)
  let raised =
    try
      ignore
        (Parallel.map ~jobs:4
           (fun i -> if i = 2 then failwith "boom" else i)
           (Array.init 64 Fun.id));
      false
    with Failure m -> m = "boom"
  in
  check_bool "exception propagated" true raised;
  let next = Parallel.map ~jobs:4 (fun i -> i * 2) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "pool unharmed afterwards" [| 2; 4; 6 |] next

let test_default_jobs_rejects () =
  (* A typo in SSJ_JOBS must fail loudly, naming the variable, not
     silently become the default. *)
  let saved = Sys.getenv_opt "SSJ_JOBS" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SSJ_JOBS" (Option.value saved ~default:""))
    (fun () ->
      List.iter
        (fun bad ->
          Unix.putenv "SSJ_JOBS" bad;
          match Parallel.default_jobs () with
          | _ -> Alcotest.failf "SSJ_JOBS=%s must be rejected" bad
          | exception Invalid_argument msg ->
            check_bool "message names the variable" true
              (String.starts_with ~prefix:"SSJ_JOBS" msg))
        [ "abc"; "0"; "-1" ])

(* The multi-job run goes first, on freshly generated traces: domains
   replay the same shared traces concurrently before any sequential run
   has touched them. *)
let test_runner_deterministic () =
  let traces = Array.init 4 (fun i -> tower_trace 300 (100 + i)) in
  let capacity = 8 in
  let setup =
    { Runner.capacity; warmup = Runner.default_warmup ~capacity; window = None }
  in
  let run jobs =
    Runner.compare_joining ~setup ~traces
      ~policies:(Factory.trend_policies tower ~seed:3 ())
      ~include_opt:true ~jobs ()
  in
  let two = run 2 in
  let one = run 1 in
  check_int "summary count" (List.length one) (List.length two);
  List.iter2
    (fun (a : Runner.summary) (b : Runner.summary) ->
      check_bool (a.Runner.label ^ " label") true
        (a.Runner.label = b.Runner.label);
      check_bool (a.Runner.label ^ " per_run") true
        (a.Runner.per_run = b.Runner.per_run))
    one two

(* --- counted selection work ------------------------------------------ *)

let counter name =
  List.find_map
    (function
      | Ssj_obs.Obs.Counter_v { name = n; value } when n = name -> Some value
      | _ -> None)
    (Ssj_obs.Obs.snapshot ())
  |> Option.get

(* [f ()] with the obs gate on: (selections, sort moves, steps that
   took the bucket pass). *)
let selection_work f =
  let saved = Ssj_obs.Obs.on () in
  Ssj_obs.Obs.set_enabled true;
  Ssj_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Ssj_obs.Obs.set_enabled saved)
    (fun () ->
      f ();
      ( counter "policy.selections",
        counter "policy.sort_moves",
        counter "policy.sort_buckets" ))

let run_work ~trace ~policy ~capacity =
  selection_work (fun () -> ignore (Join_sim.run ~trace ~policy ~capacity ()))

(* One shuffled step of 402 candidates: 400 cached tuples in random uid
   order, then the two arrivals, scored [score_of j] by position. *)
let shuffled_step rng score_of =
  let arrivals = Array.init 400 Fun.id in
  Rng.shuffle rng arrivals;
  let scores = Array.init 402 score_of in
  let cache =
    List.init 400 (fun j ->
        tup (if Rng.bool rng then Tuple.R else Tuple.S) j arrivals.(j))
  in
  ((fun (t : Tuple.t) -> scores.(t.Tuple.value)),
   cache @ [ tup Tuple.R 400 400; tup Tuple.S 401 400 ])

(* Element moves are exact for a given trace, so this gate has no timing
   noise.  PROB on TOWER keeps its order from step to step: insertion
   repairs ~53 inversions a step at k = 25 and ~783 at k = 400, most of
   them the two arrivals passing the dead entries.

   RAND redraws every score, so each step past the fill must take the
   bucket pass (n moves) and then repair few inversions.  On WALK at
   k = 100, 968 of 1000 steps bucket, at ~134 moves a step with the
   fill's insertions; insertion alone costs O(k²).  On TOWER at k = 400,
   the dead entries (all but ~25) trail the live ones in last step's uid
   order: 1968 of 2000 steps bucket, at ~389 moves a step; a dead block
   placed out of that order would cost O(k²) to repair.

   HEEB(h1) on WALK keeps the order of most steps, but when the walk
   moves, the tuples above and below it trade places: the i²/8 budget
   then starts insertion over from the bucket pass.  Over the walk-k100
   benchmark's first ten traces (seeds 42 + 1009 i, 5000 steps each)
   6,164 of 50,000 steps bucket, at ~103 moves a step; without the
   budget 93 steps bucket, at ~128 moves a step.  The gates allow 1.5 n
   a step.

   Tied scores fill a bucket in shuffled uid order, which insertion
   cannot repair cheaply: the bucket pass then orders by uid first.  On
   shuffled 402-candidate steps with all-equal and with three distinct
   scores the sort may cost at most what a merge of the input's natural
   runs would, plus 2n. *)
let test_selection_work () =
  let trace = tower_trace 5000 42 in
  List.iter
    (fun (capacity, bound) ->
      let policy = Baselines.prob ~lifetime:(Config.lifetime tower) () in
      let steps, moves, _ = run_work ~trace ~policy ~capacity in
      let per_step = float_of_int moves /. float_of_int steps in
      if per_step > bound then
        Alcotest.failf "PROB k=%d: %.1f sort moves per step (gate %.0f)"
          capacity per_step bound)
    [ (25, 60.0); (400, 850.0) ];
  let w = Config.walk () in
  let r, s = Config.walk_predictors w in
  let walk_trace seed length = Trace.generate ~r ~s ~rng:(Rng.create seed) ~length in
  (* A fresh [policy ()] on each trace. *)
  let gate label ~traces ~policy ~capacity ~min_buckets =
    let steps, moves, buckets =
      List.fold_left
        (fun (a, b, c) trace ->
          let a', b', c' = run_work ~trace ~policy:(policy ()) ~capacity in
          (a + a', b + b', c + c'))
        (0, 0, 0) traces
    in
    let per_step = float_of_int moves /. float_of_int steps in
    let bound = 1.5 *. float_of_int (capacity + 2) in
    if buckets < min_buckets then
      Alcotest.failf "%s k=%d: %d of %d steps took the bucket pass (gate %d)"
        label capacity buckets steps min_buckets;
    if per_step > bound then
      Alcotest.failf "%s k=%d: %.1f sort moves per step (gate %.0f)"
        label capacity per_step bound
  in
  gate "RAND on WALK" ~capacity:100 ~min_buckets:950
    ~traces:[ walk_trace 42 1000 ]
    ~policy:(fun () -> Baselines.rand ~rng:(Rng.create 42) ());
  gate "RAND on TOWER" ~capacity:400 ~min_buckets:1900
    ~traces:[ tower_trace 2000 42 ]
    ~policy:(fun () ->
      Baselines.rand ~rng:(Rng.create 42) ~lifetime:(Config.lifetime tower) ());
  gate "HEEB(h1) on WALK" ~capacity:100 ~min_buckets:5000
    ~traces:(List.init 10 (fun i -> walk_trace (42 + (1009 * i)) 5000))
    ~policy:(Factory.walk_heeb w ~capacity:100);
  (* What a merge of the input's natural runs under the best-first order
     costs: n moves a pass, ⌈log₂ runs⌉ passes. *)
  let merge_moves ~score candidates =
    let a = Array.of_list candidates in
    let n = Array.length a in
    let runs = ref 1 in
    for q = 1 to n - 1 do
      let sa = score a.(q) and sb = score a.(q - 1) in
      if sa > sb || (sa = sb && a.(q).Tuple.uid > a.(q - 1).Tuple.uid) then
        incr runs
    done;
    let passes = ref 0 in
    while 1 lsl !passes < !runs do
      incr passes
    done;
    !passes * n
  in
  List.iter
    (fun (name, score_of) ->
      for seed = 1 to 10 do
        let rng = Rng.create seed in
        let score, candidates = shuffled_step rng (score_of rng) in
        let _, moves, _ =
          selection_work (fun () -> ignore (keep_top ~capacity:400 ~score candidates))
        in
        let bound = merge_moves ~score candidates + (2 * 402) in
        if moves > bound then
          Alcotest.failf "shuffled %s, seed %d: %d sort moves (gate %d)" name
            seed moves bound
      done)
    [
      ("all-equal scores", fun _ _ -> 1.0);
      ("three scores", fun rng _ -> float_of_int (Rng.int rng 3));
    ]

(* A NaN score has no place in the best-first order: the step raises
   [Invalid_argument] naming the policy, the step and the uid, on the
   insertion route (few candidates, or in the cache's order) and on the
   bucket route (shuffled), wherever the NaN sits: first, last, or where
   the bucket pass would move it to the front. *)
let test_nan_score_raises () =
  List.iter
    (fun (n, shuffled, nan_at) ->
      let rng = Rng.create (n + nan_at) in
      let cached =
        List.init (n - 2) (fun j -> tup (if j mod 2 = 0 then Tuple.R else Tuple.S) j j)
      in
      let r = tup Tuple.R (n - 2) (n - 2) and s = tup Tuple.S (n - 1) (n - 2) in
      let nan_uid = (List.nth (cached @ [ r; s ]) nan_at).Tuple.uid in
      (* Best-first in cache order, or a fresh draw per candidate. *)
      let policy =
        Policy.scored ~name:"NaN-probe" (fun ~now:_ ~capacity:_ ~n ~uids ~values ~scores ->
            for i = 0 to n - 1 do
              scores.(i) <-
                (if uids.(i) = nan_uid then Float.nan
                 else if shuffled then Rng.float rng 1.0
                 else float_of_int (-values.(i)))
            done)
      in
      let expected =
        Printf.sprintf "NaN-probe: step 7: candidate uid %d scored NaN" nan_uid
      in
      match
        (Option.get policy.Policy.fast) ~src:(Policy.of_tuples cached)
          ~dst:(Policy.buffer ()) ~now:7 ~r ~s ~capacity:(n - 2)
      with
      | () -> Alcotest.failf "n=%d: NaN at %d was ranked" n nan_at
      | exception Invalid_argument msg ->
        Alcotest.(check string) (Printf.sprintf "n=%d, NaN at %d" n nan_at)
          expected msg)
    [
      (10, false, 0);
      (10, true, 4);
      (10, false, 9);
      (200, false, 0);
      (200, false, 150);
      (200, false, 198);
      (200, true, 0);
      (200, true, 1);
      (200, true, 77);
      (200, true, 199);
    ]

let suite =
  [
    Alcotest.test_case "fast path = list path" `Quick test_fast_matches_list;
    Alcotest.test_case "Parallel.map = Array.map" `Quick test_parallel_map;
    Alcotest.test_case "Parallel.map: raising job propagates cleanly" `Quick
      test_map_raising_job;
    Alcotest.test_case "SSJ_JOBS: malformed value rejected" `Quick
      test_default_jobs_rejects;
    Alcotest.test_case "runner deterministic across jobs" `Quick
      test_runner_deterministic;
    Alcotest.test_case "selection work counted" `Quick test_selection_work;
    Alcotest.test_case "NaN score raises, naming its uid" `Quick
      test_nan_score_raises;
  ]
