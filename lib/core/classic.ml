module Itab = Ssj_prob.Itab

(* The list without the first occurrence of [w], sharing the tail after
   it.  On a cache (no duplicates) this is [List.filter ((<>) w)]. *)
let rec remove_first (w : int) = function
  | [] -> []
  | v :: rest -> if v = w then rest else v :: remove_first w rest

(* A full miss: [w] is the first entry, in list order, with the lowest
   score [ws] so far — the strict [<] sends ties to the earliest entry.
   Cache the fetched value only if it scores at least [ws]; otherwise
   keeping the current contents is at least as good.  Every argument is
   passed explicitly so the scan allocates no closure. *)
let rec evict score now value cached w (ws : float) = function
  | v :: rest ->
    let s = score ~now v in
    if s < ws then evict score now value cached v s rest
    else evict score now value cached w ws rest
  | [] ->
    if score ~now value >= ws then value :: remove_first w cached else cached

(* Shared skeleton: on hit return the cache unchanged (after bookkeeping);
   on miss insert the new value, evicting the worst-scored entry when full.
   [score] maps a cached value to its retention priority (higher = keep);
   a full miss scores each entry once and the fetched value once. *)
let scored_policy ~cname ~observe ~score =
  let access ~now ~cached ~value ~hit ~capacity =
    observe ~now ~value;
    if hit then cached
    else if List.compare_length_with cached capacity < 0 then value :: cached
    else if capacity = 0 then []
    else
      match cached with
      | [] -> [ value ]
      | v :: rest -> evict score now value cached v (score ~now v) rest
  in
  { Policy.cname; access }

(* The list without its [i]-th element, sharing the tail after it. *)
let rec remove_nth i = function
  | [] -> []
  | v :: rest -> if i = 0 then rest else v :: remove_nth (i - 1) rest

let rand_cache ~rng =
  (* Always admit the fetched tuple, evicting a uniformly random entry:
     the same draw as [Rng.pick] over the cache as an array. *)
  let access ~now:_ ~cached ~value ~hit ~capacity =
    if hit then cached
    else if capacity = 0 then []
    else
      let n = List.length cached in
      if n < capacity then value :: cached
      else value :: remove_nth (Ssj_prob.Rng.int rng n) cached
  in
  { Policy.cname = "RAND"; access }

(* LRU reads a value's last reference time with [min_int] as the lookup
   default.  [min_int] is also a legal time, so only that result pays an
   [Itab.mem] to tell "never referenced" apart. *)
let lru () =
  let last_use = Itab.create ~size:64 () in
  let observe ~now ~value = Itab.set last_use value now in
  let score ~now:_ v =
    let t = Itab.find_default last_use v min_int in
    if t = min_int && not (Itab.mem last_use v) then Float.neg_infinity
    else float_of_int t
  in
  scored_policy ~cname:"LRU" ~observe ~score

let lfu () =
  let counts = Itab.create ~size:64 () in
  let observe ~now:_ ~value = Itab.add counts value 1 in
  let score ~now:_ v = float_of_int (Itab.find_default counts v 0) in
  scored_policy ~cname:"LFU" ~observe ~score

let lruk ~k =
  if k < 1 then invalid_arg "Classic.lruk: k < 1";
  (* For each value, the times of its k most recent references,
     most recent first. *)
  let refs : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let observe ~now ~value =
    let old = Option.value ~default:[] (Hashtbl.find_opt refs value) in
    let updated = now :: old in
    let updated = List.filteri (fun i _ -> i < k) updated in
    Hashtbl.replace refs value updated
  in
  let score ~now:_ v =
    match Hashtbl.find_opt refs v with
    | Some times when List.length times >= k ->
      (* k-th most recent reference time; bigger = more recently active. *)
      float_of_int (List.nth times (k - 1))
    | Some times ->
      (* Fewer than k references: rank below every full history, break
         ties among such entries by plain LRU on their newest use. *)
      let newest = match times with t :: _ -> t | [] -> 0 in
      -1e12 +. float_of_int newest
    | None -> Float.neg_infinity
  in
  scored_policy ~cname:(Printf.sprintf "LRU-%d" k) ~observe ~score

let lfd ~reference =
  let n = Array.length reference in
  (* Value [v] gets slot [k = slot_of v], numbered by first reference; its
     reference times, ascending, are [times.(first.(k) .. first.(k+1) - 1)]. *)
  let slot_of = Itab.create ~size:64 () in
  let first = Array.make (n + 1) 0 in
  let slots = ref 0 in
  Array.iter
    (fun v ->
      let k = Itab.find_default slot_of v !slots in
      if k = !slots then begin
        Itab.set slot_of v k;
        incr slots
      end;
      first.(k + 1) <- first.(k + 1) + 1)
    reference;
  for k = 1 to !slots do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let times = Array.make n 0 in
  let cursor = Array.sub first 0 !slots in
  Array.iteri
    (fun t v ->
      let k = Itab.find_default slot_of v 0 in
      times.(cursor.(k)) <- t;
      cursor.(k) <- cursor.(k) + 1)
    reference;
  Array.blit first 0 cursor 0 !slots;
  (* [cursor.(k)] only moves forward, past times <= some earlier [now]
     no later than [latest]; so for [now >= latest] the first time after
     [now] is found by resuming the scan there (amortised O(1) over a
     run).  A [now] that goes backwards binary-searches the whole run. *)
  let latest = ref min_int in
  let next_use ~now v =
    let k = Itab.find_default slot_of v (-1) in
    if k < 0 then max_int
    else begin
      let stop = first.(k + 1) in
      let i =
        if now >= !latest then begin
          latest := now;
          let c = ref cursor.(k) in
          while !c < stop && times.(!c) <= now do
            incr c
          done;
          cursor.(k) <- !c;
          !c
        end
        else begin
          let lo = ref first.(k) and hi = ref stop in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if times.(mid) <= now then lo := mid + 1 else hi := mid
          done;
          !lo
        end
      in
      if i >= stop then max_int else times.(i)
    end
  in
  let observe ~now:_ ~value:_ = () in
  let score ~now v = -.float_of_int (Int.min (next_use ~now v) (2 * (n + 1))) in
  scored_policy ~cname:"LFD" ~observe ~score

let lfu_model ~prob =
  let observe ~now:_ ~value:_ = () in
  let score ~now:_ v = prob v in
  scored_policy ~cname:"A0" ~observe ~score
