open Ssj_core

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

(* ---- Policy lineups ----------------------------------------------- *)

let lineup ?jobs items entries =
  List.map
    (fun (label, f) -> summarize ~label (Ssj_prob.Parallel.map ?jobs f items))
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
