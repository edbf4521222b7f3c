module Itab = Ssj_prob.Itab

(* Shared skeleton: one score per slot.  [update ~now ~value ~hit c]
   records the reference and writes the referenced value's retention
   priority (higher = keep) into its slot, [c.scores.(c.slot)] — the hit
   slot, or the staging slot on a miss.  No other slot is touched, since
   no other value's score moved (LFD re-scores them itself when its
   clock says they may have).  Each policy writes its score inline, so
   no float is boxed on the way.  A full miss drops the shared argmin's
   victim. *)
let slot_scored ~cname update =
  let access ~now ~(cached : Policy.slots) ~value ~hit ~capacity =
    update ~now ~value ~hit cached;
    if hit || cached.n < capacity then Policy.no_drop
    else Policy.drop_argmin Policy.Newest_admitted cached
  in
  { Policy.cname; access }

let rand_cache ~rng =
  (* Always admit the fetched tuple, evicting a uniformly random entry:
     the draw [Rng.int rng n] is an admission rank, newest first, as the
     list cache it replaces indexed it.  [order] holds the slots oldest
     first, so rank [r] is [order.(n - 1 - r)]. *)
  let order = ref [||] in
  let access ~now:_ ~(cached : Policy.slots) ~value:_ ~hit ~capacity =
    let n = cached.n in
    if hit then Policy.no_drop
    else if capacity = 0 then n
    else begin
      if Array.length !order < capacity then order := Array.make capacity 0;
      let order = !order in
      if n < capacity then begin
        order.(n) <- n;
        Policy.no_drop
      end
      else begin
        let at = n - 1 - Ssj_prob.Rng.int rng n in
        let d = order.(at) in
        Array.blit order (at + 1) order at (n - 1 - at);
        order.(n - 1) <- d;
        d
      end
    end
  in
  { Policy.cname = "RAND"; access }

(* A cached value's last reference is the one that made or kept it
   cached, so its slot's score is that reference's time. *)
let lru () =
  slot_scored ~cname:"LRU" (fun ~now ~value:_ ~hit:_ (c : Policy.slots) ->
      Array.unsafe_set c.scores c.slot (float_of_int now))

let lfu () =
  let counts = Itab.create ~size:64 () in
  slot_scored ~cname:"LFU" (fun ~now:_ ~value ~hit:_ (c : Policy.slots) ->
      Itab.add counts value 1;
      Array.unsafe_set c.scores c.slot
        (float_of_int (Itab.find_default counts value 0)))

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
  let score v =
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
  slot_scored ~cname:(Printf.sprintf "LRU-%d" k)
    (fun ~now ~value ~hit:_ (c : Policy.slots) ->
      observe ~now ~value;
      c.scores.(c.slot) <- score value)

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
  let cap = 2 * (n + 1) in
  (* On the clock [0, 1, 2, ...] of [reference] itself, the step at
     [now] moves only the next use of [reference.(now)] — the referenced
     value, whose slot is re-scored anyway.  Any other step (a clock
     that jumps or goes back, or a reference that is not
     [reference.(now)]) may move every cached value's next use: the
     slots go stale and are re-scored before the next decision. *)
  let expected = ref 0 and stale = ref false in
  slot_scored ~cname:"LFD" (fun ~now ~value ~hit (c : Policy.slots) ->
      if now <> !expected || now < 0 || now >= n || reference.(now) <> value
      then stale := true;
      expected := now + 1;
      if !stale && not hit then begin
        for i = 0 to c.n - 1 do
          c.scores.(i) <- -.float_of_int (Int.min (next_use ~now c.values.(i)) cap)
        done;
        stale := false
      end;
      c.scores.(c.slot) <- -.float_of_int (Int.min (next_use ~now value) cap))

let lfu_model ~prob =
  slot_scored ~cname:"A0" (fun ~now:_ ~value ~hit:_ (c : Policy.slots) ->
      c.scores.(c.slot) <- prob value)
