open Ssj_core

module Obs = Ssj_obs.Obs
module Itab = Ssj_prob.Itab

let m_accesses = Obs.Counter.create "cache_sim.accesses"
let m_hits = Obs.Counter.create "cache_sim.hits"
let m_misses = Obs.Counter.create "cache_sim.misses"
let m_occupancy = Obs.Histogram.create ~buckets:512 "cache_sim.occupancy"

type result = {
  hits : int;
  misses : int;
  counted_hits : int;
  counted_misses : int;
}

(* The cache in stable slots ([Policy.slots]) and [index], value → slot
   for exactly the [n] cached values: the hit test is one probe.
   [stamp] is the next admission's stamp. *)
type t = {
  policy : Policy.cache;
  capacity : int;
  slots : Policy.slots;
  index : Itab.t;
  mutable stamp : int;
}

let create ~policy ~capacity =
  let capacity = max 0 capacity in
  {
    policy;
    capacity;
    slots = Policy.slots ~capacity;
    index = Itab.create ~size:(2 * capacity) ();
    stamp = 0;
  }

let bad_drop t ~now d expected =
  invalid_arg
    (Printf.sprintf "Cache_sim: policy %s at step %d: drop %d, expected %s"
       t.policy.Policy.cname now d expected)

let nothing_decided = Printf.sprintf "no drop (%d)" Policy.no_drop

(* One reference: a hit names its slot, a miss stages the fetched value
   (value and stamp) in slot [n].  The policy decides only a full miss;
   the drop is range-checked, then applied: a dropped slot takes the
   staged value, stamp and score, a dropped fetched value changes
   nothing, and a miss with room occupies slot [n]. *)
let access t ~now value =
  let c = t.slots in
  let n = c.n in
  let slot = Itab.find_default t.index value (-1) in
  let hit = slot >= 0 in
  if hit then c.slot <- slot
  else begin
    Array.unsafe_set c.values n value;
    Array.unsafe_set c.stamps n t.stamp;
    c.slot <- n
  end;
  let d = t.policy.Policy.access ~now ~cached:c ~value ~hit ~capacity:t.capacity in
  if hit then begin
    if d <> Policy.no_drop then bad_drop t ~now d nothing_decided
  end
  else if n < t.capacity then begin
    if d <> Policy.no_drop then bad_drop t ~now d nothing_decided;
    Itab.set t.index value n;
    c.n <- n + 1;
    t.stamp <- t.stamp + 1
  end
  else if d < 0 || d > n then
    bad_drop t ~now d (Printf.sprintf "a candidate in [0, %d]" n)
  else if d < n then begin
    Itab.remove t.index (Array.unsafe_get c.values d);
    Itab.set t.index value d;
    Array.unsafe_set c.values d value;
    Array.unsafe_set c.stamps d t.stamp;
    Array.unsafe_set c.scores d (Array.unsafe_get c.scores n);
    t.stamp <- t.stamp + 1
  end;
  hit

(* Newest admission first: the order of the list cache this replaced. *)
let contents t =
  let c = t.slots in
  List.init c.n (fun i -> (c.stamps.(i), c.values.(i)))
  |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  |> List.map snd

let run_internal ~reference ~policy ~capacity ?(warmup = 0) ~log () =
  let n = Array.length reference in
  let decisions = if log then Some (Array.make n []) else None in
  let t = create ~policy ~capacity in
  let hits = ref 0 and misses = ref 0 in
  let counted_hits = ref 0 and counted_misses = ref 0 in
  for now = 0 to n - 1 do
    if access t ~now (Array.unsafe_get reference now) then begin
      incr hits;
      if now >= warmup then incr counted_hits
    end
    else begin
      incr misses;
      if now >= warmup then incr counted_misses
    end;
    if Obs.on () then Obs.Histogram.observe m_occupancy t.slots.Policy.n;
    match decisions with Some d -> d.(now) <- contents t | None -> ()
  done;
  if Obs.on () then begin
    Obs.Counter.add m_accesses n;
    Obs.Counter.add m_hits !hits;
    Obs.Counter.add m_misses !misses
  end;
  ( {
      hits = !hits;
      misses = !misses;
      counted_hits = !counted_hits;
      counted_misses = !counted_misses;
    },
    decisions )

let run ~reference ~policy ~capacity ?warmup () =
  fst (run_internal ~reference ~policy ~capacity ?warmup ~log:false ())

let run_logged ~reference ~policy ~capacity () =
  match run_internal ~reference ~policy ~capacity ~log:true () with
  | result, Some decisions -> (result, decisions)
  | _, None -> assert false
