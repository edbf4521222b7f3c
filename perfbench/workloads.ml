(* The four benchmark workloads: set-up (traces, model fit, Precompute,
   policy factories) and one pass of simulation runs through the
   runner's public entry points. *)

open Ssj_prob
open Ssj_stream
open Ssj_engine
open Ssj_workload

type block =
  | Join of {
      prefix : string;  (** digest key prefix *)
      setup : Runner.joining_setup;
      traces : Trace.t array;
      lineup : Factory.join_lineup;
      opt : bool;  (** also solve OPT-offline on every trace *)
    }
  | Cache of {
      prefix : string;
      capacity : int;
      references : int array array;
      lineup : Factory.cache_lineup;
    }

(* Set-up work per layer, measured on the way. *)
type setup_cost = {
  mutable generate_ns : int;
  mutable precompute_ns : int;
  mutable precompute_words : int;
}

let setup_cost () = { generate_ns = 0; precompute_ns = 0; precompute_words = 0 }

let timed add f =
  let t0 = Layers.now_ns () in
  let v = f () in
  add (Layers.now_ns () - t0);
  v

let precompute cost f =
  let w0 = Layers.minor_words () in
  let v = timed (fun ns -> cost.precompute_ns <- cost.precompute_ns + ns) f in
  cost.precompute_words <- cost.precompute_words + (Layers.minor_words () - w0);
  v

(* Traces seeded [seed + 1009 i], as in the fig8/fig12/fig19 pipelines;
   the lazy arrival tuples are materialised here so the first timed pass
   already runs in steady state. *)
let traces cost ~predictors ~runs ~length ~seed =
  Array.init runs (fun i ->
      let r, s = predictors () in
      let trace =
        timed
          (fun ns -> cost.generate_ns <- cost.generate_ns + ns)
          (fun () ->
            Trace.generate ~r ~s ~rng:(Rng.create (seed + (1009 * i))) ~length)
      in
      if length > 0 then ignore (Trace.arrivals trace 0);
      trace)

let joining_setup capacity =
  { Runner.capacity; warmup = Runner.default_warmup ~capacity; window = None }

(* fig8's tracked sweep: the array fast path with a saturated cache. *)
let tower ~tiny ~seed cost =
  let cfg = Config.tower () in
  let runs, length =
    if tiny then (4, 600)
    else (Ssj_conform.Golden.canonical_runs, Ssj_conform.Golden.canonical_length)
  in
  let capacity = Ssj_conform.Golden.sweep_capacity in
  let traces =
    traces cost ~predictors:(fun () -> Config.predictors cfg) ~runs ~length ~seed
  in
  [
    Join
      {
        prefix = Printf.sprintf "fig8/cap%d" capacity;
        setup = joining_setup capacity;
        traces;
        lineup = Factory.trend_policies cfg ~seed ();
        opt = false;
      };
  ]

(* fig12's WALK at a large cache: HEEB runs on the list path over a
   precomputed h1 curve, built inside [Factory.walk_policies]. *)
let walk ~tiny ~seed cost =
  let w = Config.walk () in
  let runs, length, capacity = if tiny then (4, 600, 10) else (50, 5000, 100) in
  let traces =
    traces cost ~predictors:(fun () -> Config.walk_predictors w) ~runs ~length ~seed
  in
  [
    Join
      {
        prefix = "walk-k100";
        setup = joining_setup capacity;
        traces;
        lineup =
          precompute cost (fun () -> Factory.walk_policies w ~seed ~capacity);
        opt = false;
      };
  ]

(* fig13 exactly as [Experiments.fig13_data], split into set-up (series,
   fit, batched h2 surfaces) and runs.  LFD is passed as the first
   policy rather than through [include_lfd] so its calls can be timed;
   the summaries are the same. *)
let real ~tiny ~seed cost =
  let days, sizes =
    if tiny then (400, [ 10; 25 ])
    else (3650, Experiments.default.Experiments.real_sizes)
  in
  let reference =
    timed
      (fun ns -> cost.generate_ns <- cost.generate_ns + ns)
      (fun () ->
        Real.to_bins (Real.synthetic_ar1 ~rng:(Rng.create seed) ~days ()))
  in
  let fitted = Ssj_model.Fit.ar1_of_ints reference in
  let ls =
    Array.of_list
      (List.map
         (fun c -> Ssj_core.Lfun.exp_ ~alpha:(float_of_int (max 2 c)))
         sizes)
  in
  let lo, hi = Factory.real_surface_bounds fitted in
  let surfaces =
    precompute cost (fun () ->
        Ssj_core.Precompute.ar1_caching_surfaces fitted ~ls ~vx_lo:lo ~vx_hi:hi
          ~x0_lo:lo ~x0_hi:hi ~nv:5 ~nx:5 ~jobs:1 ())
  in
  List.mapi
    (fun i capacity ->
      Cache
        {
          prefix = Printf.sprintf "fig13/m%d" capacity;
          capacity;
          references = [| reference |];
          lineup =
            [
              ("LFD", fun () -> Ssj_core.Classic.lfd ~reference);
              ( "RAND",
                fun () -> Ssj_core.Classic.rand_cache ~rng:(Rng.create seed) );
              ("LRU", fun () -> Ssj_core.Classic.lru ());
              ("PROB(LFU)", fun () -> Ssj_core.Classic.lfu ());
              ("HEEB", Factory.real_heeb_of_surface surfaces.(i));
            ];
        })
    sizes

(* fig19's setting at look-ahead 10: FlowExpect solves a min-cost flow
   per step; the trend baselines and OPT-offline run on the same traces. *)
let floor ~tiny ~seed cost =
  let cfg = Config.floor () in
  let runs, length, lookahead =
    if tiny then (1, 120, 3)
    else (Experiments.default.Experiments.fe_runs, 500, 10)
  in
  let traces =
    traces cost ~predictors:(fun () -> Config.predictors cfg) ~runs ~length ~seed
  in
  [
    Join
      {
        prefix = "floor-fe10";
        setup = joining_setup 20;
        traces;
        lineup =
          Factory.trend_policies cfg ~seed ()
          @ [ ("FLOWEXPECT", Factory.trend_flow_expect cfg ~lookahead) ];
        opt = true;
      };
  ]

let all = [ ("tower-k25", tower); ("walk-k100", walk); ("real-h2", real); ("floor-fe10", floor) ]

(* Policy-steps in one pass: one per policy per time step (or reference
   access); an OPT-offline solve counts its trace length. *)
let steps blocks =
  List.fold_left
    (fun acc block ->
      match block with
      | Join { traces; lineup; opt; _ } ->
        let len = Array.fold_left (fun a t -> a + Trace.length t) 0 traces in
        acc + (len * (List.length lineup + if opt then 1 else 0))
      | Cache { references; lineup; _ } ->
        let len = Array.fold_left (fun a r -> a + Array.length r) 0 references in
        acc + (len * List.length lineup))
    0 blocks

(* One pass: every block through the runner at [jobs] domains, returning
   (digest prefix, summary) pairs.  With a tracer the policies are
   wrapped and the OPT-offline solves timed; [opt = false] skips them. *)
let pass ?tracer ?(opt = true) ~jobs blocks =
  List.concat_map
    (fun block ->
      match block with
      | Join { prefix; setup; traces; lineup; opt = with_opt } ->
        let policies =
          match tracer with
          | None -> lineup
          | Some tr -> List.map (Layers.join tr) lineup
        in
        let summaries =
          Runner.compare_joining ~setup ~traces ~policies ~include_opt:false
            ~jobs ()
        in
        Option.iter (fun tr -> ignore (Layers.close tr)) tracer;
        let solve trace =
          float_of_int
            (Ssj_core.Opt_offline.max_results_from ~trace
               ~capacity:setup.Runner.capacity ~start:setup.Runner.warmup ())
        in
        let solve =
          match tracer with
          | None -> solve
          | Some tr -> fun trace -> Layers.opt tr (fun () -> solve trace)
        in
        let opt_summary =
          if opt && with_opt then
            [ Runner.summarize ~label:"OPT-OFFLINE" (Parallel.map ~jobs solve traces) ]
          else []
        in
        List.map (fun s -> (prefix, s)) (summaries @ opt_summary)
      | Cache { prefix; capacity; references; lineup } ->
        let policies =
          match tracer with
          | None -> lineup
          | Some tr -> List.map (Layers.cache tr) lineup
        in
        let summaries =
          Runner.compare_caching ~capacity ~warmup:0 ~references ~policies
            ~include_lfd:false ~jobs ()
        in
        Option.iter (fun tr -> ignore (Layers.close tr)) tracer;
        List.map (fun s -> (prefix, s)) summaries)
    blocks
