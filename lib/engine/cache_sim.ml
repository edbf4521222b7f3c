open Ssj_core

module Obs = Ssj_obs.Obs

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

let validate_selection ~cached ~value ~capacity selection =
  if List.length selection > capacity then
    Error
      (Printf.sprintf "cache of size %d exceeds capacity %d"
         (List.length selection) capacity)
  else if
    not
      (List.for_all (fun v -> v = value || List.memq v cached) selection)
  then Error "cache contains a value that was neither cached nor fetched"
  else begin
    let sorted = List.sort Int.compare selection in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then true else dup rest
      | [ _ ] | [] -> false
    in
    if dup sorted then Error "cache contains duplicate values" else Ok ()
  end

let run_internal ~reference ~policy ~capacity ?(warmup = 0) ?(validate = false)
    ~log () =
  let n = Array.length reference in
  let decisions = match log with true -> Some (Array.make n []) | false -> None in
  let cache = ref [] in
  let hits = ref 0 and misses = ref 0 in
  let counted_hits = ref 0 and counted_misses = ref 0 in
  for now = 0 to n - 1 do
    let value = reference.(now) in
    (* [memq] on ints: physical equality is value equality, and the scan
       stays monomorphic *)
    let hit = List.memq value !cache in
    if hit then begin
      incr hits;
      if now >= warmup then incr counted_hits
    end
    else begin
      incr misses;
      if now >= warmup then incr counted_misses
    end;
    let selection =
      policy.Policy.access ~now ~cached:!cache ~value ~hit ~capacity
    in
    if validate then begin
      match validate_selection ~cached:!cache ~value ~capacity selection with
      | Ok () -> ()
      | Error msg ->
        failwith
          (Printf.sprintf "policy %s at t=%d: %s" policy.Policy.cname now msg)
    end;
    if Obs.on () then Obs.Histogram.observe m_occupancy (List.length selection);
    cache := selection;
    match decisions with Some d -> d.(now) <- selection | None -> ()
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

let run ~reference ~policy ~capacity ?warmup ?validate () =
  fst (run_internal ~reference ~policy ~capacity ?warmup ?validate ~log:false ())

let run_logged ~reference ~policy ~capacity () =
  match run_internal ~reference ~policy ~capacity ~validate:true ~log:true () with
  | result, Some decisions -> (result, decisions)
  | _, None -> assert false
