open Ssj_stream
open Ssj_core

module Obs = Ssj_obs.Obs

(* Per-step engine metrics.  The occupancy histogram is the saturation
   diagnostic: a policy sweep only discriminates when the cache is full
   of live tuples, i.e. when the occupancy mass sits at the capacity
   bucket *and* [policy.dead_candidates] stays low. *)
let m_steps = Obs.Counter.create "join_sim.steps"
let m_arrivals = Obs.Counter.create "join_sim.arrivals"
let m_matches = Obs.Counter.create "join_sim.matches"
let m_evictions = Obs.Counter.create "join_sim.evictions"
let m_occupancy = Obs.Histogram.create ~buckets:256 "join_sim.occupancy"
let m_budget_aborts = Obs.Counter.create "join_sim.budget_aborts"

exception Step_budget_exceeded of { policy : string; steps : int }

let () =
  Printexc.register_printer (function
    | Step_budget_exceeded { policy; steps } ->
      Some
        (Printf.sprintf
           "Join_sim.Step_budget_exceeded(policy=%s, steps=%d)" policy steps)
    | _ -> None)

(* Soft per-run timeout: a run whose trace asks for more steps than the
   supervisor budgeted is aborted here rather than allowed to burn a
   whole sweep's wall-clock.  Checked at the top of every step. *)
let[@inline] check_budget ~policy ~budget ~now =
  match budget with
  | Some b when now >= b ->
    Obs.Counter.incr m_budget_aborts;
    raise (Step_budget_exceeded { policy; steps = now })
  | Some _ | None -> ()

let observe_step ~now ~warmup ~produced ~occupancy ~evicted =
  Obs.Counter.incr m_steps;
  Obs.Counter.add m_arrivals 2;
  Obs.Counter.add m_matches produced;
  Obs.Counter.add m_evictions evicted;
  Obs.Histogram.observe m_occupancy occupancy;
  if now = warmup then
    Obs.event ~name:"join_sim.warmup_boundary"
      Ssj_obs.Json.[ ("t", int now); ("occupancy", int occupancy) ]

type result = {
  total_results : int;
  counted_results : int;
  share_samples : (int * float) list;
}

let matches_in_cache ?window ?(band = 0) ~now cache (arrival : Tuple.t) =
  let partner = Tuple.partner arrival.Tuple.side in
  List.fold_left
    (fun acc (c : Tuple.t) ->
      let in_window =
        match window with None -> true | Some w -> Window.inside w ~now c
      in
      if
        in_window
        && c.Tuple.side = partner
        && abs (c.Tuple.value - arrival.Tuple.value) <= band
      then acc + 1
      else acc)
    0 cache

(* Fraction of the cache held by R tuples (uid side bit 0). *)
let r_share (b : Policy.buffer) =
  if b.n = 0 then 0.0
  else begin
    let r = ref 0 in
    for i = 0 to b.n - 1 do
      if b.uids.(i) land 1 = 0 then incr r
    done;
    float_of_int !r /. float_of_int b.n
  end

(* The one step loop.  The cache lives in two engine-owned buffers
   ping-ponged each step, so the loop itself allocates nothing; a
   plan-based policy runs through [Policy.fast_of_select].  Validation,
   the decision log and share sampling are per-step observers of the
   buffers. *)
let run_internal ~trace ~policy ~capacity ?(warmup = 0) ?window ?band
    ?record_share ?(validate = false) ?step_budget ~log () =
  let tlen = Trace.length trace in
  let decisions =
    match log with true -> Some (Array.make tlen []) | false -> None
  in
  let index = Join_index.create ?window ?band ~length:tlen () in
  let name = policy.Policy.name in
  let step =
    match policy.Policy.fast with
    | Some fast -> fast
    | None -> Policy.fast_of_select policy.Policy.select
  in
  let total = ref 0 and counted = ref 0 in
  let shares = ref [] in
  let src = ref (Policy.buffer ()) and dst = ref (Policy.buffer ()) in
  for now = 0 to tlen - 1 do
    check_budget ~policy:name ~budget:step_budget ~now;
    let r_t, s_t = Trace.arrivals trace now in
    let produced =
      Join_index.matches index ~now r_t + Join_index.matches index ~now s_t
    in
    total := !total + produced;
    if now >= warmup then counted := !counted + produced;
    let src_b = !src and dst_b = !dst in
    step ~src:src_b ~dst:dst_b ~now ~r:r_t ~s:s_t ~capacity;
    if validate then begin
      match
        Policy.validate_join_selection ~cached:(Policy.tuples src_b)
          ~arrivals:[ r_t; s_t ] ~capacity (Policy.tuples dst_b)
      with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "policy %s at t=%d: %s" name now msg)
    end;
    (* The step's diff: at most two entries either way in the steady
       state.  Evictions are positions in the previous buffer. *)
    if dst_b.Policy.kept_r then Join_index.insert index r_t;
    if dst_b.Policy.kept_s then Join_index.insert index s_t;
    let en = dst_b.Policy.evicted_n in
    let ev = dst_b.Policy.evicted in
    let su = src_b.Policy.uids and sv = src_b.Policy.values in
    for e = 0 to en - 1 do
      let pos = Array.unsafe_get ev e in
      Join_index.remove_id index ~uid:(Array.unsafe_get su pos)
        ~value:(Array.unsafe_get sv pos)
    done;
    if Obs.on () then
      observe_step ~now ~warmup ~produced ~occupancy:dst_b.Policy.n ~evicted:en;
    (match decisions with
    | Some d -> d.(now) <- Policy.tuples dst_b
    | None -> ());
    (match record_share with
    | Some every when every > 0 && now mod every = 0 ->
      shares := (now, r_share dst_b) :: !shares
    | Some _ | None -> ());
    src := dst_b;
    dst := src_b
  done;
  ( {
      total_results = !total;
      counted_results = !counted;
      share_samples = List.rev !shares;
    },
    decisions )

let run ~trace ~policy ~capacity ?warmup ?window ?band ?record_share ?validate
    ?step_budget () =
  fst
    (run_internal ~trace ~policy ~capacity ?warmup ?window ?band ?record_share
       ?validate ?step_budget ~log:false ())

let run_logged ~trace ~policy ~capacity ?window () =
  match
    run_internal ~trace ~policy ~capacity ?window ~validate:true ~log:true ()
  with
  | result, Some decisions -> (result, decisions)
  | _, None -> assert false

let recount ~trace ~decisions ?window ?band () =
  let total = ref 0 in
  Array.iteri
    (fun now _ ->
      if now > 0 then begin
        let cache = decisions.(now - 1) in
        let r_t, s_t = Trace.arrivals trace now in
        total :=
          !total
          + matches_in_cache ?window ?band ~now cache r_t
          + matches_in_cache ?window ?band ~now cache s_t
      end)
    decisions;
  !total
