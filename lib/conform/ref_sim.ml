open Ssj_stream
open Ssj_core

type result = { total_results : int; counted_results : int }

(* [|a − c| <= band] without subtracting: [c − a] overflows when the
   values sit at opposite ends of the int range. *)
let within ~band a c =
  let plus v = if v > max_int - band then max_int else v + band in
  c <= plus a && a <= plus c

(* Deliberately naive: a plain fold over the cache list per arrival.
   Shares no counting code with the engine (Join_index), so agreement
   with Join_sim is evidence about the indexed fast path, not a
   tautology. *)
let count_matches ~window ~band ~now cache (arrival : Tuple.t) =
  List.fold_left
    (fun acc (c : Tuple.t) ->
      let live =
        match window with None -> true | Some w -> Window.inside w ~now c
      in
      if
        live
        && c.Tuple.side <> arrival.Tuple.side
        && within ~band c.Tuple.value arrival.Tuple.value
      then acc + 1
      else acc)
    0 cache

let run ~trace ~policy ~capacity ?(warmup = 0) ?window ?(band = 0) () =
  let tlen = Trace.length trace in
  let cache = ref [] in
  let total = ref 0 and counted = ref 0 in
  for now = 0 to tlen - 1 do
    let r_t, s_t = Trace.arrivals trace now in
    (* Arrivals join the cache decided at now − 1; the cache never holds
       a same-step tuple, so same-time R–S matches are excluded by
       construction, as in the engine. *)
    let produced =
      count_matches ~window ~band ~now !cache r_t
      + count_matches ~window ~band ~now !cache s_t
    in
    total := !total + produced;
    if now >= warmup then counted := !counted + produced;
    let arrivals = [ r_t; s_t ] in
    let selection =
      policy.Policy.select ~now ~cached:!cache ~arrivals ~capacity
    in
    (match
       Policy.validate_join_selection ~cached:!cache ~arrivals ~capacity
         selection
     with
    | Ok () -> ()
    | Error msg ->
      failwith
        (Printf.sprintf "Ref_sim: policy %s at t=%d: %s" policy.Policy.name
           now msg));
    cache := selection
  done;
  { total_results = !total; counted_results = !counted }

(* Stable full sort of the scored candidates, best-first, ties to the
   newer tuple; keep the prefix. *)
let keep_top_spec ~capacity ~score candidates =
  if capacity <= 0 then []
  else begin
    let scored = List.map (fun t -> (score t, t)) candidates in
    let ordered =
      List.sort
        (fun (sa, (ta : Tuple.t)) (sb, (tb : Tuple.t)) ->
          match Float.compare sb sa with 0 -> Int.compare tb.uid ta.uid | c -> c)
        scored
    in
    List.filteri (fun i _ -> i < capacity) ordered |> List.map snd
  end

type cache_spec = {
  spec_name : string;
  keep :
    now:int -> cached:int list -> value:int -> hit:bool -> capacity:int -> int list;
}

let validate_cache_selection ~cached ~value ~capacity selection =
  if List.length selection > capacity then
    Error
      (Printf.sprintf "cache of size %d exceeds capacity %d"
         (List.length selection) capacity)
  else if not (List.for_all (fun v -> v = value || List.mem v cached) selection)
  then Error "cache contains a value that was neither cached nor fetched"
  else if
    List.length (List.sort_uniq Int.compare selection) <> List.length selection
  then Error "cache contains duplicate values"
  else Ok ()

(* The caching loop before stable slots: the cache is the spec's list,
   a hit is a list scan, and every selection is validated. *)
let cache_replay ~reference ?nows ~capacity spec =
  let cache = ref [] in
  Array.mapi
    (fun t value ->
      let now = match nows with Some a -> a.(t) | None -> t in
      let hit = List.mem value !cache in
      let kept = spec.keep ~now ~cached:!cache ~value ~hit ~capacity in
      (match validate_cache_selection ~cached:!cache ~value ~capacity kept with
      | Ok () -> ()
      | Error msg ->
        failwith
          (Printf.sprintf "Ref_sim: policy %s at t=%d: %s" spec.spec_name now
             msg));
      cache := kept;
      (hit, kept))
    reference

(* Score every candidate (the fetched value first on a miss, then the
   cache), sort best-first with ties to the larger value, keep the
   prefix. *)
let keep_best_spec ~capacity ~score ~cached ~value ~hit =
  let candidates = if hit then cached else value :: cached in
  let scored = List.map (fun v -> (score v, v)) candidates in
  let ordered =
    List.sort
      (fun (sa, va) (sb, vb) ->
        match Float.compare sb sa with 0 -> Int.compare vb va | c -> c)
      scored
  in
  List.filteri (fun i _ -> i < capacity) ordered |> List.map snd

let run_case case =
  run ~trace:(Case.trace case) ~policy:(Case.policy case)
    ~capacity:case.Case.capacity ~warmup:(Case.warmup case)
    ?window:(Case.window case) ~band:case.Case.band ()
