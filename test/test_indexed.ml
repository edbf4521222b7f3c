(* Properties of the optimised simulation core against its reference
   implementations: the selection routine vs full sort, the incremental
   join index vs the naive cache scan, the buffer step vs the same
   policy run as a plan over lists, and the parallel runner vs
   sequential execution. *)

open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload
open Helpers

let tup side value arrival = Tuple.make ~side ~value ~arrival
let uids = List.map (fun t -> t.Tuple.uid)

(* --- the selection routine vs keep_top_spec ------------------------- *)

(* Scores drawn from a small table so ties are frequent; candidates get
   distinct arrivals, so (score, newer first) is a total order and the
   two implementations must agree exactly.  Random cases: sizes up to 60
   against capacities up to 12 cover n <= capacity as well as candidate
   sets many times the capacity.  Engine-shaped cases
   ({!Ssj_conform.Oracles.engine_step}): the cache in last step's order
   with a few entries rescored or killed, shuffled caches and NaN
   scores, at sizes on both sides of the sort's 64-candidate switch up
   to 402. *)
let score_table = [| Float.neg_infinity; 0.0; 0.0; 1.0; 2.5; 7.0 |]

type keep_top_case =
  | Random_case of int * (int * bool) list
  | Engine_case of Ssj_conform.Oracles.step_shape * int * int * int

let gen_keep_top =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (capacity, specs) -> Random_case (capacity, specs))
          (pair (int_range 0 12)
             (list_size (int_range 2 60) (pair (int_range 0 5) bool)));
        map
          (fun (shape, n, capacity, seed) ->
            Engine_case (shape, n, min n capacity, seed))
          (quad
             (oneofl
                Ssj_conform.Oracles.[ Engine_order; Shuffled; With_nan ])
             (oneof [ int_range 2 64; int_range 65 402 ])
             (int_range 1 402) int);
      ])

let keep_top_agrees case =
  let capacity, score, tuples =
    match case with
    | Random_case (capacity, specs) ->
      ( capacity,
        (fun t -> score_table.(t.Tuple.value)),
        List.mapi
          (fun i (s, side) -> tup (if side then Tuple.R else Tuple.S) s i)
          specs )
    | Engine_case (shape, n, capacity, seed) ->
      let score, tuples =
        Ssj_conform.Oracles.engine_step ~shape ~n (Rng.create seed)
      in
      (capacity, score, tuples)
  in
  uids (keep_top ~capacity ~score tuples)
  = uids (Ssj_conform.Ref_sim.keep_top_spec ~capacity ~score tuples)

(* --- Join_index vs Ref_sim.count_matches ---------------------------- *)

(* Drive a random cache evolution (subset of cached + arrivals, capacity
   8), maintain the index from each step's diff with [insert]/[remove_id]
   as the engine does, and check at every step that it counts exactly
   what a naive scan of the current cache counts. *)
let gen_evolution =
  QCheck2.Gen.(
    quad (int_range 0 9999) (int_range 0 3) (int_range 0 2) (int_range 5 40))

let index_agrees (seed, wcode, band, steps) =
  let window = if wcode = 0 then None else Some (Window.create ~width:(3 * wcode)) in
  let index = Join_index.create ?window ~band ~length:steps () in
  let rng = Rng.create seed in
  let cache = ref [] in
  let ok = ref true in
  for now = 0 to steps - 1 do
    let r = tup Tuple.R (Rng.int rng 9 - 4) now in
    let s = tup Tuple.S (Rng.int rng 9 - 4) now in
    let agrees t =
      Join_index.matches index ~now t
      = Ssj_conform.Ref_sim.count_matches ~window ~band ~now !cache t
    in
    if not (agrees r && agrees s) then ok := false;
    let next =
      List.filteri
        (fun i _ -> i < 8)
        (List.filter (fun _ -> Rng.float rng 1.0 < 0.7) (!cache @ [ r; s ]))
    in
    List.iter
      (fun t ->
        if not (List.exists (Tuple.equal t) !cache) then
          Join_index.insert index t)
      next;
    List.iter
      (fun (t : Tuple.t) ->
        if not (List.exists (Tuple.equal t) next) then
          Join_index.remove_id index ~uid:t.uid ~value:t.value)
      !cache;
    cache := next
  done;
  !ok

(* --- scored step vs the same policy run as a plan ------------------- *)

let tower = Config.tower ()

let tower_trace length seed =
  let r, s = Config.predictors tower in
  Trace.generate ~r ~s ~rng:(Rng.create seed) ~length

(* The scored step against the same policy run as a plan: with
   [fast = None] the engine steps its list [select] (a list adapter over
   the same step) through [Policy.fast_of_select], which rebuilds tuples
   and computes the diff from the returned plan, with every selection
   validated.  Fresh policy instances with the same seed draw
   the same randomness, so both executions must produce identical
   counts.  Capacity 1 keeps the candidate set at three times the
   capacity. *)
let test_fast_matches_list () =
  let trace = tower_trace 400 5 in
  List.iter
    (fun (capacity, window, band) ->
      List.iter
        (fun (name, mk) ->
          let run policy validate =
            Join_sim.run ~trace ~policy ~capacity ~warmup:40 ?window ~band
              ~validate ()
          in
          let fast = run (mk ()) false
          and slow = run { (mk ()) with Policy.fast = None } true in
          let label =
            Printf.sprintf "%s cap=%d band=%d%s" name capacity band
              (match window with None -> "" | Some _ -> " win")
          in
          check_int (label ^ " total") slow.Join_sim.total_results
            fast.Join_sim.total_results;
          check_int (label ^ " counted") slow.Join_sim.counted_results
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

(* One policy run with the obs gate on: (selections, sort moves, steps
   that took the merge route). *)
let selection_work ~trace ~policy ~capacity =
  let saved = Ssj_obs.Obs.on () in
  Ssj_obs.Obs.set_enabled true;
  Ssj_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Ssj_obs.Obs.set_enabled saved)
    (fun () ->
      ignore (Join_sim.run ~trace ~policy ~capacity ());
      ( counter "policy.selections",
        counter "policy.sort_moves",
        counter "policy.sort_merges" ))

(* Element moves are exact for a given trace, so this gate has no timing
   noise.  PROB on TOWER keeps its order from step to step: insertion
   repairs ~53 inversions a step at k = 25 and ~794 at k = 400, most of
   them the two arrivals passing the dead entries.  Sorting every step by
   merge would cost a pass of k + 2 moves per merge level.  RAND redraws every score, so at k = 100 on WALK each step
   past the fill must take the merge (968 of 1000 do), or insertion pays
   O(k²). *)
let test_selection_work () =
  let trace = tower_trace 5000 42 in
  List.iter
    (fun (capacity, bound) ->
      let policy = Baselines.prob ~lifetime:(Config.lifetime tower) () in
      let steps, moves, _ = selection_work ~trace ~policy ~capacity in
      let per_step = float_of_int moves /. float_of_int steps in
      if per_step > bound then
        Alcotest.failf "PROB k=%d: %.1f sort moves per step (gate %.0f)"
          capacity per_step bound)
    [ (25, 60.0); (400, 850.0) ];
  let w = Config.walk () in
  let r, s = Config.walk_predictors w in
  let trace = Trace.generate ~r ~s ~rng:(Rng.create 42) ~length:1000 in
  let policy = Baselines.rand ~rng:(Rng.create 42) () in
  let steps, _, merges = selection_work ~trace ~policy ~capacity:100 in
  if merges < 950 then
    Alcotest.failf "RAND on WALK k=100: %d of %d steps took the merge (gate 950)"
      merges steps

let suite =
  [
    qcheck "keep_top = keep_top_spec" gen_keep_top keep_top_agrees;
    qcheck ~count:100 "Join_index = naive cache scan" gen_evolution
      index_agrees;
    Alcotest.test_case "fast path = list path" `Quick test_fast_matches_list;
    Alcotest.test_case "Parallel.map = Array.map" `Quick test_parallel_map;
    Alcotest.test_case "runner deterministic across jobs" `Quick
      test_runner_deterministic;
    Alcotest.test_case "selection work counted" `Quick test_selection_work;
  ]
