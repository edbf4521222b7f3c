(* The benchmark program behind BENCHMARK.json: one workload per
   process, so the heap peak and GC counts of its first pass repeat
   exactly.  run.py builds it and passes its own flags through.

   --trace 0  end-to-end metrics, tracing off, 1 domain: set-up time
              (median of several set-ups), policy-steps per second (the
              best of the passes run for --seconds), heap peak.
   --trace 1  per-layer metrics: an Obs-gated counts pass, then
              untraced, traced and all-core passes in turn for --seconds.

   Every pass must reproduce the first one bit for bit; at the default
   seed the first pass must also match the pinned digests.  The last
   stdout line is the JSON result. *)

open Ssj_engine
module Obs = Ssj_obs.Obs

let golden_seed = 42

(* --- correctness ------------------------------------------------------- *)

type results = (string * Runner.summary) list

let key (prefix, (s : Runner.summary)) = prefix ^ "/" ^ s.Runner.label

let digests (results : results) =
  List.concat_map
    (fun ((_, (s : Runner.summary)) as r) ->
      [
        (key r ^ "/mean", Printf.sprintf "%h" s.Runner.mean);
        (key r ^ "/stddev", Printf.sprintf "%h" s.Runner.stddev);
      ])
    results

let expected ~workload ~corrupt ~pinned (first : results) =
  if corrupt then
    match first with
    | r :: _ -> [ (key r ^ "/mean", "corrupt") ]
    | [] -> []
  else if not pinned then []
  else
    let of_golden = List.map (fun d -> Ssj_conform.Golden.(d.key, d.hex)) in
    match workload with
    | "tower-k25" -> of_golden Ssj_conform.Golden.expected_fig8
    | "real-h2" -> of_golden Ssj_conform.Golden.expected_fig13
    | _ ->
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:(workload ^ "/") k)
        Pins.digests

(* Summaries that failed a check, by key; a failed summary fails all of
   its runs. *)
let failed : (string, unit) Hashtbl.t = Hashtbl.create 8

let check_digests ~expect (first : results) =
  let actual = digests first in
  List.iter
    (fun (k, hex) ->
      match List.assoc_opt k actual with
      | Some h when h = hex -> ()
      | Some _ -> Hashtbl.replace failed (Filename.dirname k) ()
      | None -> List.iter (fun r -> Hashtbl.replace failed (key r) ()) first)
    expect

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Every summary [other] shares with [first] must agree run for run. *)
let check_same (first : results) (other : results) =
  List.iter
    (fun r ->
      match List.assoc_opt (key r) (List.map (fun o -> (key o, snd o)) other) with
      | Some s when same_bits (snd r).Runner.per_run s.Runner.per_run -> ()
      | Some _ -> Hashtbl.replace failed (key r) ()
      | None -> ())
    first

let runs_of (results : results) keep =
  List.fold_left
    (fun acc r ->
      if keep r then acc + Array.length (snd r).Runner.per_run else acc)
    0 results

(* --- measurement helpers ----------------------------------------------- *)

let seconds_since t0 = float_of_int (Layers.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Layers.now_ns () in
  let v = f () in
  (seconds_since t0, v)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let counter views name =
  List.fold_left
    (fun acc v ->
      match v with
      | Obs.Counter_v { name = n; value } when n = name -> fi value
      | _ -> acc)
    0.0 views

(* Policy metric names, keyed by the line-up labels that feed them. *)
let policy_names =
  [
    ("RAND", "rand");
    ("PROB", "prob");
    ("LIFE", "life");
    ("HEEB", "heeb");
    ("LRU", "lru");
    ("PROB(LFU)", "lfu");
    ("FLOWEXPECT", "flowexpect");
  ]

(* --- the two kinds of run ---------------------------------------------- *)

(* Set-up is repeated until at least three set-ups and half a second
   have passed, so the median is steady even when one set-up takes well
   under a millisecond.  A full major collection before each set-up and
   before the timed passes keeps the previous set-up's garbage (~440 MB
   for walk-k100) from being collected inside the next timing. *)
let setup_times ~build ~setup1 =
  let t0 = Layers.now_ns () in
  let rec more acc n =
    if n >= 1000 || (n >= 3 && seconds_since t0 >= 0.5) then acc
    else begin
      Gc.full_major ();
      more (fst (timed (fun () -> Sys.opaque_identity (build ()))) :: acc) (n + 1)
    end
  in
  let times = more [ setup1 ] 1 in
  Gc.full_major ();
  times

let end_to_end ~build ~blocks ~first ~setup1 ~heap_mb ~seconds =
  let setup_times = setup_times ~build ~setup1 in
  let steps = fi (Workloads.steps blocks) in
  let deadline = Layers.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop rates =
    let wall, res = timed (fun () -> Workloads.pass ~jobs:1 blocks) in
    check_same first res;
    let rates = (steps /. wall) :: rates in
    if Layers.now_ns () < deadline then loop rates else rates
  in
  let rates = loop [] in
  (* Interference from other work on a shared host only ever slows a
     pass, and comes in bursts of several seconds, so the fastest pass
     tracks the code's own cost more steadily than the median pass
     (quartile spread over ten seeds: ~5% against ~10% on a 2-core
     host).  The median is printed alongside. *)
  Printf.printf "# %d passes, median %.6g policy-steps/s\n" (List.length rates)
    (median rates);
  [
    ("setup_s", median setup_times, "s");
    ("steps_per_s", List.fold_left Float.max 0.0 rates, "policy-steps/s");
    ("heap_peak_mb", heap_mb, "MB");
  ]

let per_layer ~blocks ~first ~(cost : Workloads.setup_cost) ~gc0 ~gc1 ~seconds =
  let steps = Workloads.steps blocks in
  (* Counts: the Obs gate on for one pass.  OPT-offline is left out so
     the min-cost-flow counters belong to FlowExpect alone. *)
  Obs.reset ();
  Obs.set_enabled true;
  let counted =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Workloads.pass ~opt:false ~jobs:1 blocks)
  in
  check_same first counted;
  let views = Obs.snapshot () in
  let c = counter views in
  (* Timing: untraced, traced and all-core passes in turn, so each sees
     the same machine state; the tracer accumulates over every traced
     pass.  One call in [steps / 100_000] is sampled: a sampled call
     costs more than its share of a pipelined stream of ~1 µs steps, so
     sparser sampling inflates the layer sum (see README.md). *)
  let tr = Layers.create ~stride:(steps / 100_000) in
  let deadline = Layers.now_ns () + int_of_float (seconds *. 1e9) in
  let jobs = Domain.recommended_domain_count () in
  let checked_pass ?tracer jobs =
    let wall, res = timed (fun () -> Workloads.pass ?tracer ~jobs blocks) in
    check_same first res;
    wall
  in
  let rec loop plain traced par =
    let plain = checked_pass 1 :: plain in
    let traced = checked_pass ~tracer:tr 1 :: traced in
    let par = checked_pass jobs :: par in
    if Layers.now_ns () < deadline then loop plain traced par
    else (plain, traced, par)
  in
  let plain, traced, par = loop [] [] [] in
  let traced_ns = List.fold_left ( +. ) 0.0 traced *. 1e9 in
  let passes = fi (List.length traced) in
  let stat label = Hashtbl.find_opt tr.Layers.policies label in
  let policy_metrics =
    List.concat_map
      (fun (label, p) ->
        let p50, p99, words =
          match stat label with
          | None -> (0.0, 0.0, 0.0)
          | Some st ->
            ( fi (Layers.percentile st.Layers.times 0.5),
              fi (Layers.percentile st.Layers.times 0.99),
              ratio (fi st.Layers.sampled_words) (fi st.Layers.times.Layers.n) )
        in
        [
          (Printf.sprintf "policy.%s.ns_p50" p, p50, "ns");
          (Printf.sprintf "policy.%s.ns_p99" p, p99, "ns");
          (Printf.sprintf "policy.%s.words_per_call" p, words, "words");
        ])
      policy_names
  in
  let policy_ns =
    Hashtbl.fold (fun _ st acc -> acc +. Layers.policy_ns st) tr.Layers.policies 0.0
  in
  let per_step e = ratio (Layers.engine_ns e) (fi e.Layers.steps) in
  let gap_words e = ratio (fi e.Layers.gap_words) (fi e.Layers.gaps) in
  let opt_ns = fi tr.Layers.opt_ns in
  let runner_ns = traced_ns -. fi tr.Layers.run_ns -. opt_ns in
  let fe_ms =
    match stat "FLOWEXPECT" with
    | Some st -> ratio (Layers.policy_ns st) (fi st.Layers.calls) *. 1e-6
    | None -> 0.0
  in
  let decides = c "flow_expect.decides" in
  let plain_s = median plain and traced_s = median traced in
  policy_metrics
  @ [
      ("join_sim.self_ns_per_step", per_step tr.Layers.join, "ns");
      ("join_sim.self_words_per_step", gap_words tr.Layers.join, "words");
      ("join_sim.matches_per_step", ratio (c "join_sim.matches") (c "join_sim.steps"), "count");
      ("cache_sim.self_ns_per_step", per_step tr.Layers.cache, "ns");
      ("cache_sim.hit_ratio", ratio (c "cache_sim.hits") (c "cache_sim.accesses"), "ratio");
      ("precompute.build_s", fi cost.Workloads.precompute_ns *. 1e-9, "s");
      ("precompute.minor_words", fi cost.Workloads.precompute_words, "words");
      ("trace.generate_s", fi cost.Workloads.generate_ns *. 1e-9, "s");
      ("policy.candidates_per_step", ratio (c "policy.candidates") (c "policy.selections"), "count");
      ("policy.evictions_per_step", ratio (c "policy.evictions") (c "policy.selections"), "count");
      ("policy.dead_candidate_ratio", ratio (c "policy.dead_candidates") (c "policy.candidates"), "ratio");
      ("policy.boundary_tie_ratio", ratio (c "policy.boundary_score_ties") (c "policy.selections"), "ratio");
      ("flow_expect.ms_per_decide", fe_ms, "ms");
      ( "flow_expect.law_warm_hit_ratio",
        ratio (c "flow_expect.law_warm_hits")
          (c "flow_expect.law_warm_hits" +. c "flow_expect.law_warm_misses"),
        "ratio" );
      ("mcmf.dijkstra_pops_per_decide", ratio (c "mcmf.dijkstra_pops") decides, "count");
      ("mcmf.augmentations_per_decide", ratio (c "mcmf.augmentations") decides, "count");
      ( "mcmf.graph_reuse_ratio",
        ratio (c "mcmf.graph_reuse") (c "mcmf.graph_reuse" +. c "mcmf.graph_create"),
        "ratio" );
      ("opt_offline.ms_per_trace", ratio opt_ns (fi tr.Layers.opt_calls) *. 1e-6, "ms");
      ( "gc.minor_words_per_step",
        ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (fi steps),
        "words" );
      ( "gc.promoted_words_per_step",
        ratio (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) (fi steps),
        "words" );
      ("gc.minor_collections", fi (gc1.Gc.minor_collections - gc0.Gc.minor_collections), "count");
      ("gc.major_collections", fi (gc1.Gc.major_collections - gc0.Gc.major_collections), "count");
      ("runner.self_ms", runner_ns /. passes *. 1e-6, "ms");
      ("runner.jobs_speedup", ratio plain_s (median par), "x");
      ("bench.trace_overhead_pct", 100.0 *. ratio (traced_s -. plain_s) plain_s, "%");
      ( "bench.layer_sum_ratio",
        ratio (policy_ns +. Layers.engine_ns tr.Layers.join +. Layers.engine_ns tr.Layers.cache
               +. runner_ns +. opt_ns)
          traced_ns,
        "ratio" );
    ]

(* --- output ------------------------------------------------------------ *)

let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit_) -> Printf.printf "# %-36s %.6g %s\n" name value unit_)
    metrics;
  Printf.printf "# fail_ratio %.6g (%d of %d runs failed)\n"
    (ratio (fi failed) (fi attempted)) failed attempted;
  let metric (name, value, unit_) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite value then value else 0.0)
      unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

let () =
  let workload = ref "" and seed = ref golden_seed and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false and corrupt = ref false in
  let print_digests = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " tower-k25 | walk-k100 | real-h2 | floor-fe10");
      ("--seed", Arg.Set_int seed, " workload seed (default 42, the golden seed)");
      ("--seconds", Arg.Set_float seconds, " how long the timed passes run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--tiny", Arg.Set tiny, " self-test scale");
      ("--corrupt-pin", Arg.Set corrupt, " expect a wrong digest (self-test)");
      ("--print-digests", Arg.Set print_digests, " print the first pass's digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [options]";
  let make =
    match List.assoc_opt !workload Workloads.all with
    | Some make -> make
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  Obs.set_enabled false;
  Obs.set_event_sink `Null;
  let build () = make ~tiny:!tiny ~seed:!seed (Workloads.setup_cost ()) in
  let cost = Workloads.setup_cost () in
  match
    let setup1, blocks = timed (fun () -> make ~tiny:!tiny ~seed:!seed cost) in
    let gc0 = Gc.quick_stat () in
    let first = Workloads.pass ~jobs:1 blocks in
    let gc1 = Gc.quick_stat () in
    let heap_mb = fi (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 in
    if !print_digests then
      List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) (digests first);
    check_digests
      ~expect:
        (expected ~workload:!workload ~corrupt:!corrupt
           ~pinned:(!seed = golden_seed && not !tiny)
           first)
      first;
    let metrics =
      if !trace = 0 then
        end_to_end ~build ~blocks ~first ~setup1 ~heap_mb ~seconds:!seconds
      else per_layer ~blocks ~first ~cost ~gc0 ~gc1 ~seconds:!seconds
    in
    (first, metrics)
  with
  | first, metrics ->
    let attempted = runs_of first (fun _ -> true) in
    let failed = runs_of first (fun r -> Hashtbl.mem failed (key r)) in
    print_result ~attempted ~failed metrics;
    exit (if failed = 0 then 0 else 1)
  | exception e ->
    (* The runner re-raises a failed run without saying which one. *)
    prerr_endline ("run failed: " ^ Printexc.to_string e);
    print_result ~attempted:1 ~failed:1 [];
    exit 1
