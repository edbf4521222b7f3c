open Ssj_core
module Obs = Ssj_obs.Obs

type summary = {
  label : string;
  mean : float;
  stddev : float;
  per_run : float array;
}

let summarize ~label per_run =
  (* An empty sweep (0 traces) must summarise to zeros, not NaN: the
     bench JSON schema promises finite policy means at any scale. *)
  if Array.length per_run = 0 then { label; mean = 0.0; stddev = 0.0; per_run }
  else
    {
      label;
      mean = Ssj_prob.Stats.mean per_run;
      stddev = Ssj_prob.Stats.stddev per_run;
      per_run;
    }

type joining_setup = {
  capacity : int;
  warmup : int;
  window : Ssj_stream.Window.t option;
}

let default_warmup ~capacity = 4 * capacity

(* ---- The per-run loop --------------------------------------------- *)

let m_run_failures = Obs.Counter.create "runner.run_failures"
let m_run_retries = Obs.Counter.create "runner.run_retries"
let m_checkpoint_hits = Obs.Counter.create "runner.checkpoint_hits"

type failure = {
  policy : string;
  run : int;
  attempts : int;
  error : string;
  backtrace : string;
}

type supervision = { retries : int; checkpoint : Checkpoint.t option }

let supervision_from_env () =
  {
    retries = Ssj_prob.Parallel.env_int "SSJ_RETRIES" ~min:0 ~default:1;
    checkpoint = Checkpoint.from_env ();
  }

type supervised = {
  summary : summary;
  failures : failure list;
  salvaged : int;
  checkpoint_hits : int;
}

(* Carries the structured failure out of the worker domain through
   [Ssj_prob.Parallel.try_map]'s per-slot capture. *)
exception Run_failed of failure

let failure ~label ~run ~attempts e bt =
  {
    policy = label;
    run;
    attempts;
    error = Printexc.to_string e;
    backtrace = Printexc.raw_backtrace_to_string bt;
  }

let run_supervised ~label ?supervision ?(ckpt_context = "") ?jobs f arr =
  let retries = Option.fold supervision ~none:0 ~some:(fun s -> s.retries) in
  let checkpoint = Option.bind supervision (fun s -> s.checkpoint) in
  let supervised = Option.is_some supervision in
  let hits = Atomic.make 0 in
  let key run = Printf.sprintf "%s|%s|%d" ckpt_context label run in
  let worker (run, x) =
    let recorded c = Checkpoint.find c ~key:(key run) in
    match Option.bind checkpoint recorded with
    | Some v ->
      Atomic.incr hits;
      Obs.Counter.incr m_checkpoint_hits;
      v
    | None ->
      let rec go attempt =
        match f run x with
        | v ->
          Option.iter (fun c -> Checkpoint.record c ~key:(key run) v)
            checkpoint;
          v
        | exception e when supervised ->
          let bt = Printexc.get_raw_backtrace () in
          if attempt <= retries then begin
            Obs.Counter.incr m_run_retries;
            go (attempt + 1)
          end
          else begin
            Obs.Counter.incr m_run_failures;
            raise (Run_failed (failure ~label ~run ~attempts:attempt e bt))
          end
      in
      go 1
  in
  let indexed = Array.mapi (fun i x -> (i, x)) arr in
  let slots =
    if supervised then Ssj_prob.Parallel.try_map ?jobs worker indexed
    else Array.map Result.ok (Ssj_prob.Parallel.map ?jobs worker indexed)
  in
  let completed = ref [] and failures = ref [] in
  Array.iteri
    (fun run slot ->
      match slot with
      | Ok v -> completed := v :: !completed
      | Error (Run_failed fl, _) -> failures := fl :: !failures
      | Error (e, bt) ->
        (* Exceptions raised outside the retry loop (a checkpoint write)
           still become manifest entries rather than vanishing. *)
        failures := failure ~label ~run ~attempts:1 e bt :: !failures)
    slots;
  let per_run = Array.of_list (List.rev !completed) in
  {
    summary = summarize ~label per_run;
    failures = List.rev !failures;
    salvaged = Array.length per_run;
    checkpoint_hits = Atomic.get hits;
  }

(* ---- Policy lineups over the loop ---------------------------------- *)

let lineup ?jobs items entries =
  List.map
    (fun (label, f) ->
      (run_supervised ~label ?jobs (fun _ x -> f x) items).summary)
    entries

let compare_joining ~setup ~traces ~policies ?(include_opt = true) ?jobs () =
  let { capacity; warmup; window } = setup in
  let opt trace =
    float_of_int
      (Opt_offline.max_results_from ~trace ~capacity ~start:warmup ())
  in
  let simulate make trace =
    let result =
      Join_sim.run ~trace ~policy:(make ()) ~capacity ~warmup ?window ()
    in
    float_of_int result.Join_sim.counted_results
  in
  lineup ?jobs traces
    ((if include_opt then [ ("OPT-OFFLINE", opt) ] else [])
    @ List.map (fun (label, make) -> (label, simulate make)) policies)

let compare_caching ~capacity ~warmup ~references ~policies
    ?(include_lfd = true) ?jobs () =
  let misses policy reference =
    let result = Cache_sim.run ~reference ~policy ~capacity ~warmup () in
    float_of_int result.Cache_sim.counted_misses
  in
  let lfd reference = misses (Classic.lfd ~reference) reference in
  lineup ?jobs references
    ((if include_lfd then [ ("LFD", lfd) ] else [])
    @ List.map
        (fun (label, make) ->
          (label, fun reference -> misses (make ()) reference))
        policies)

let share_trace ~trace ~policy ~capacity ~every =
  let result =
    Join_sim.run ~trace ~policy ~capacity ~record_share:every ()
  in
  result.Join_sim.share_samples
