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
    ?record_share ?(validate = false) ~log () =
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
    () =
  fst
    (run_internal ~trace ~policy ~capacity ?warmup ?window ?band ?record_share
       ?validate ~log:false ())

let run_logged ~trace ~policy ~capacity ?window () =
  match
    run_internal ~trace ~policy ~capacity ?window ~validate:true ~log:true ()
  with
  | result, Some decisions -> (result, decisions)
  | _, None -> assert false
