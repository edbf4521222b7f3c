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
    else begin
      (* [w] is the first entry, in list order, with the lowest score [ws]
         so far: the strict [<] sends ties to the earliest entry. *)
      let rec evict w (ws : float) = function
        | v :: rest ->
          let s = score ~now v in
          if s < ws then evict v s rest else evict w ws rest
        | [] ->
          (* Cache the fetched tuple only if it outranks the worst entry;
             otherwise keeping the current contents is at least as good. *)
          if score ~now value >= ws then
            value :: List.filter (fun v -> v <> w) cached
          else cached
      in
      match cached with
      | [] -> [ value ]
      | v :: rest -> evict v (score ~now v) rest
    end
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

let lru () =
  let last_use = Hashtbl.create 64 in
  let observe ~now ~value = Hashtbl.replace last_use value now in
  let score ~now:_ v =
    match Hashtbl.find_opt last_use v with
    | Some t -> float_of_int t
    | None -> Float.neg_infinity
  in
  scored_policy ~cname:"LRU" ~observe ~score

let lfu () =
  let counts = Hashtbl.create 64 in
  let observe ~now:_ ~value =
    let c = Option.value ~default:0 (Hashtbl.find_opt counts value) in
    Hashtbl.replace counts value (c + 1)
  in
  let score ~now:_ v =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts v))
  in
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
  (* occurrences.(v) = sorted arrival times of value v. *)
  let occurrences : (int, int array) Hashtbl.t = Hashtbl.create 64 in
  let tmp : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for t = n - 1 downto 0 do
    let v = reference.(t) in
    let old = Option.value ~default:[] (Hashtbl.find_opt tmp v) in
    Hashtbl.replace tmp v (t :: old)
  done;
  Hashtbl.iter (fun v ts -> Hashtbl.replace occurrences v (Array.of_list ts)) tmp;
  let next_use ~now v =
    match Hashtbl.find_opt occurrences v with
    | None -> max_int
    | Some ts ->
      (* Binary search for the first occurrence strictly after [now]. *)
      let lo = ref 0 and hi = ref (Array.length ts) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ts.(mid) <= now then lo := mid + 1 else hi := mid
      done;
      if !lo >= Array.length ts then max_int else ts.(!lo)
  in
  let observe ~now:_ ~value:_ = () in
  let score ~now v = -.float_of_int (min (next_use ~now v) (2 * (n + 1))) in
  scored_policy ~cname:"LFD" ~observe ~score

let lfu_model ~prob =
  let observe ~now:_ ~value:_ = () in
  let score ~now:_ v = prob v in
  scored_policy ~cname:"A0" ~observe ~score

let working_set ~tau =
  if tau < 1 then invalid_arg "Classic.working_set: tau < 1";
  let last_use = Hashtbl.create 64 in
  let observe ~now ~value = Hashtbl.replace last_use value now in
  let score ~now v =
    match Hashtbl.find_opt last_use v with
    | None -> Float.neg_infinity
    | Some t ->
      (* Working-set members rank above everything outside it; LRU order
         breaks ties within each class. *)
      let in_ws = now - t <= tau in
      (if in_ws then 1e12 else 0.0) +. float_of_int t
  in
  scored_policy ~cname:(Printf.sprintf "WS(%d)" tau) ~observe ~score

let clock () =
  (* Circular buffer of (value, referenced-bit). *)
  let ring : (int * bool ref) array ref = ref [||] in
  let hand = ref 0 in
  let access ~now:_ ~cached ~value ~hit ~capacity =
    (* Resynchronise the ring with the simulator's view (robust to any
       external cache manipulation). *)
    let entries =
      Array.to_list !ring |> List.filter (fun (v, _) -> List.mem v cached)
    in
    let missing =
      List.filter (fun v -> not (List.exists (fun (w, _) -> w = v) entries))
        cached
    in
    let entries = entries @ List.map (fun v -> (v, ref true)) missing in
    ring := Array.of_list entries;
    if !hand >= Array.length !ring then hand := 0;
    if hit then begin
      Array.iter (fun (v, bit) -> if v = value then bit := true) !ring;
      cached
    end
    else if capacity = 0 then []
    else if List.length cached < capacity then begin
      ring := Array.append !ring [| (value, ref true) |];
      value :: cached
    end
    else begin
      (* Second-chance scan. *)
      let n = Array.length !ring in
      let victim = ref None in
      while !victim = None do
        let v, bit = !ring.(!hand) in
        if !bit then begin
          bit := false;
          hand := (!hand + 1) mod n
        end
        else begin
          victim := Some v;
          !ring.(!hand) <- (value, ref true);
          hand := (!hand + 1) mod n
        end
      done;
      match !victim with
      | Some v -> value :: List.filter (fun w -> w <> v) cached
      | None -> cached
    end
  in
  { Policy.cname = "CLOCK"; access }
