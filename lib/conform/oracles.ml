open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload

(* --- case generation ------------------------------------------------ *)

(* Small random cases: short traces over a narrow value domain (dense
   enough that band/window decisions actually collide), small caches.
   Deterministic in (seed, index) so failures are addressable.  One case
   in four moves the values below -3 to [min_int .. min_int + 4] and
   those above 3 to [max_int - 4 .. max_int], next to the ordinary
   values in between: a band probe or a value difference that wraps at
   the int range then changes the counts. *)
let gen_case ?(allow_window = true) ~seed i =
  let rng = Rng.create (seed + (7919 * i)) in
  let policy = List.nth Case.policy_names (Rng.int rng 4) in
  let len = 4 + Rng.int rng 37 in
  let values () = Array.init len (fun _ -> Rng.int rng 17 - 8) in
  let band = if Rng.bool rng then 0 else Rng.int rng 3 in
  let window =
    if allow_window && Rng.int rng 3 = 0 then Some (2 + Rng.int rng 9)
    else None
  in
  let seed = Rng.int rng 1_000_000 in
  let capacity = 1 + Rng.int rng 6 in
  let s_values = values () in
  let r_values = values () in
  let extreme v =
    if v < -3 then min_int + v + 8 else if v > 3 then max_int - 8 + v else v
  in
  let r_values, s_values =
    if Rng.int rng 4 = 0 then
      (Array.map extreme r_values, Array.map extreme s_values)
    else (r_values, s_values)
  in
  { Case.r_values; s_values; capacity; band; window; policy; seed }

let describe_counts fast slow =
  Printf.sprintf "fast total=%d counted=%d, reference total=%d counted=%d"
    fast.Join_sim.total_results fast.Join_sim.counted_results
    slow.Ref_sim.total_results slow.Ref_sim.counted_results

(* --- Join_sim and Join_index vs list-scan reference ------------------ *)

let join_sim_violation case =
  let slow = Ref_sim.run_case case in
  let fast =
    Join_sim.run ~trace:(Case.trace case) ~policy:(Case.policy case)
      ~capacity:case.Case.capacity ~warmup:(Case.warmup case)
      ?window:(Case.window case) ~band:case.Case.band ()
  in
  if
    fast.Join_sim.total_results = slow.Ref_sim.total_results
    && fast.Join_sim.counted_results = slow.Ref_sim.counted_results
  then None
  else Some (describe_counts fast slow)

(* The index driven directly: the cache evolves by keeping each cached
   tuple and arrival with probability 0.7 (drawn from the case's seed),
   up to [capacity], so inserts and removals come in orders no policy
   makes.  The index is maintained from each step's diff as the engine
   does, and must count what a scan of the current cache counts, for
   both arrivals of every step. *)
let index_violation case =
  let window = Case.window case and band = case.Case.band in
  let steps = Case.length case in
  let index = Join_index.create ?window ~band ~length:steps () in
  let rng = Rng.create case.Case.seed in
  let rec step now cache =
    if now >= steps then None
    else
      let r = Tuple.make ~side:Tuple.R ~value:case.Case.r_values.(now) ~arrival:now
      and s = Tuple.make ~side:Tuple.S ~value:case.Case.s_values.(now) ~arrival:now in
      let disagrees (t : Tuple.t) =
        let fast = Join_index.matches index ~now t
        and slow = Ref_sim.count_matches ~window ~band ~now cache t in
        if fast = slow then None
        else
          Some
            (Printf.sprintf "step %d, value %d: index counts %d matches, scan %d"
               now t.Tuple.value fast slow)
      in
      match List.find_map disagrees [ r; s ] with
      | Some _ as failure -> failure
      | None ->
        let next =
          List.filteri
            (fun j _ -> j < case.Case.capacity)
            (List.filter (fun _ -> Rng.float rng 1.0 < 0.7) (cache @ [ r; s ]))
        in
        let mem t l = List.exists (Tuple.equal t) l in
        List.iter (fun t -> if not (mem t cache) then Join_index.insert index t) next;
        List.iter
          (fun (t : Tuple.t) ->
            if not (mem t next) then Join_index.remove_id index ~uid:t.uid ~value:t.value)
          cache;
        step (now + 1) next
  in
  step 0 []

(* Every other case a direct index evolution's shape: 5-40 steps over
   -4..4, capacity 8, band 0-2, no window or one of width 3, 6 or 9.
   Both comparisons run on every case. *)
let index_case ~seed i =
  let rng = Rng.create (seed + (7727 * i)) in
  let steps = 5 + Rng.int rng 36 in
  let values () = Array.init steps (fun _ -> Rng.int rng 9 - 4) in
  let r_values = values () in
  let s_values = values () in
  let band = Rng.int rng 3 in
  let window = match Rng.int rng 4 with 0 -> None | w -> Some (3 * w) in
  let policy = List.nth Case.policy_names (Rng.int rng 4) in
  let seed = Rng.int rng 1_000_000 in
  { Case.r_values; s_values; capacity = 8; band; window; policy; seed }

let join_sim_indexed =
  Check.of_violation ~name:"oracle:join-sim/indexed-vs-listscan"
    ~kind:Check.Oracle
    ~fast:"Join_sim.run (indexed buffer step); Join_index on a random cache \
           evolution"
    ~reference:"Ref_sim naive list scan"
    ~gen:(fun ~seed i ->
      if i mod 2 = 0 then gen_case ~seed (i / 2) else index_case ~seed (i / 2))
    (fun case ->
      match join_sim_violation case with
      | None -> index_violation case
      | failure -> failure)

(* --- the selection routine vs keep_top_spec ------------------------- *)

let tuples_equal a b =
  List.length a = List.length b && List.for_all2 Tuple.equal a b

let render_selection ts =
  String.concat ";"
    (List.map (fun (t : Tuple.t) -> string_of_int t.Tuple.uid) ts)

(* The selection work [f] does, with the obs gate on: sort moves, and
   whether it took the bucket pass. *)
type work = { moves : int; bucketed : bool }

let selection_work f =
  let counters () =
    let get name =
      List.find_map
        (function
          | Ssj_obs.Obs.Counter_v { name = n; value } when n = name -> Some value
          | _ -> None)
        (Ssj_obs.Obs.snapshot ())
      |> Option.get
    in
    (get "policy.sort_moves", get "policy.sort_buckets")
  in
  let saved = Ssj_obs.Obs.on () in
  Ssj_obs.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Ssj_obs.Obs.set_enabled saved)
    (fun () ->
      let m0, b0 = counters () in
      f ();
      let m1, b1 = counters () in
      { moves = m1 - m0; bucketed = b1 > b0 })

(* One scored step: the last two candidates arrive, the rest are the
   cache.  The kept tuples must equal the spec's, best-first, through
   the buffer step and through the list [select] of a fresh instance,
   and the recorded diff must name exactly the dropped ones.  [work]
   checks what the sort did. *)
let selection_violation ~work ~capacity ~score candidates =
  let n = List.length candidates in
  let cached = List.filteri (fun j _ -> j < n - 2) candidates in
  let r = List.nth candidates (n - 2) and s = List.nth candidates (n - 1) in
  let spec = Ref_sim.keep_top_spec ~capacity ~score candidates in
  let policy () = Baselines.prob_model ~partner_prob:score () in
  let fast = Option.get (policy ()).Policy.fast in
  let src = Policy.of_tuples cached and dst = Policy.buffer () in
  let did = selection_work (fun () -> fast ~src ~dst ~now:0 ~r ~s ~capacity) in
  let got = Policy.tuples dst in
  let listed = (policy ()).Policy.select ~now:0 ~cached ~arrivals:[ r; s ] ~capacity in
  let kept (t : Tuple.t) = List.exists (Tuple.equal t) spec in
  let dropped =
    List.filter_map
      (fun (j, t) -> if kept t then None else Some j)
      (List.mapi (fun j t -> (j, t)) cached)
  in
  let evicted =
    List.sort Int.compare
      (List.init dst.Policy.evicted_n (fun e -> dst.Policy.evicted.(e)))
  in
  let where = Printf.sprintf "(cap %d, %d cands)" capacity n in
  let differs path got =
    Some
      (Printf.sprintf "%s kept [%s] <> spec [%s] %s" path (render_selection got)
         (render_selection spec) where)
  in
  if not (tuples_equal got spec) then differs "step" got
  else if not (tuples_equal listed spec) then differs "select" listed
  else if
    evicted <> dropped
    || dst.Policy.kept_r <> kept r
    || dst.Policy.kept_s <> kept s
  then Some ("recorded diff disagrees with the kept set " ^ where)
  else Option.map (fun e -> e ^ " " ^ where) (work did)

(* Random candidates in random order: up to 60, kept to fewer than half
   of them, to any number up to two past them, or to 0-12 whatever
   their number, far from the engine's steady state of [capacity + 2].
   Coarse scores collapse many candidates onto equal scores, so the
   tie-break decides: value buckets with bucket 0 optionally dead, or a
   small table with one dead entry. *)
let random_selection rng =
  let n = 2 + Rng.int rng 59 in
  let tuple k =
    Tuple.make
      ~side:(if Rng.bool rng then Tuple.R else Tuple.S)
      ~value:(Rng.int rng 9 - 4)
      ~arrival:k
  in
  let candidates = List.init n tuple in
  let capacity =
    match Rng.int rng 3 with
    | 0 -> Rng.int rng (n / 2)
    | 1 -> Rng.int rng (n + 2)
    | _ -> Rng.int rng 13
  in
  let score =
    if Rng.bool rng then
      let table = [| Float.neg_infinity; 0.0; 0.0; 1.0; 2.5; 7.0 |] in
      fun (t : Tuple.t) -> table.((t.Tuple.value + 4) mod 6)
    else
      let modulus = 1 + Rng.int rng 4 and dead = Rng.bool rng in
      fun (t : Tuple.t) ->
        let b = ((t.Tuple.value mod modulus) + modulus) mod modulus in
        if dead && b = 0 then Float.neg_infinity else float_of_int b
  in
  (capacity, score, candidates)

type palette = Table | Spread | Few | Equal | Wide
type step_shape = Engine_order | Shuffled of palette

let palettes = [ Table; Spread; Few; Equal; Wide ]

(* Scores from a small table so ties are frequent; -inf is a dead
   tuple. *)
let step_scores = [| Float.neg_infinity; 0.0; 1.0; 1.0; 2.5; 7.0; 7.0 |]

(* A draw of one live score from [palette] ([Table] draws dead ones
   too), and the arrivals' scores when the palette fixes them: [Wide]'s
   arrivals score its top and its bottom, so every [Wide] step has a
   live range that is not finite. *)
let palette_draw palette rng =
  let pick table () = table.(Rng.int rng (Array.length table)) in
  match palette with
  | Table -> (pick step_scores, None)
  | Spread -> ((fun () -> Rng.float rng 1.0), None)
  | Few ->
    let values = Array.init (2 + Rng.int rng 2) (fun _ -> Rng.float rng 10.0 -. 5.0) in
    (pick values, None)
  | Equal ->
    let v = Rng.float rng 1.0 in
    ((fun () -> v), None)
  | Wide ->
    if Rng.bool rng then (pick [| 1e308; -1e308; 0.5 |], Some (1e308, -1e308))
    else (pick [| Float.infinity; -2.0; 1e308; 0.5 |], Some (Float.infinity, -2.0))

let engine_step ~shape ~n rng =
  let m = n - 2 in
  let side () = if Rng.bool rng then Tuple.R else Tuple.S in
  let draw, ends =
    palette_draw (match shape with Shuffled p -> p | Engine_order -> Table) rng
  in
  (* The cache: distinct older arrivals, with last step's scores. *)
  let cache =
    Array.init m (fun j -> (draw (), Tuple.make ~side:(side ()) ~value:j ~arrival:j))
  in
  let best_first (sa, (ta : Tuple.t)) (sb, (tb : Tuple.t)) =
    match Float.compare sb sa with 0 -> Int.compare tb.uid ta.uid | c -> c
  in
  let shuffled = shape <> Engine_order in
  if shuffled then Rng.shuffle rng cache
  else Array.stable_sort best_first cache;
  (* Outside the table, a shuffled cache ends in a block of up to m/2
     dead entries in last step's order: newest first. *)
  let dead =
    match shape with
    | Shuffled p when p <> Table -> Rng.int rng ((m / 2) + 1)
    | _ -> 0
  in
  let block = Array.sub cache (m - dead) dead in
  Array.sort (fun (_, (a : Tuple.t)) (_, (b : Tuple.t)) -> Int.compare b.uid a.uid) block;
  Array.blit block 0 cache (m - dead) dead;
  (* A value is the candidate's position, so it keys its score. *)
  let cache =
    Array.mapi
      (fun j (sc, (t : Tuple.t)) ->
        (sc, Tuple.make ~side:t.side ~value:j ~arrival:t.arrival))
      cache
  in
  (* This step's scores: a few entries rescored or killed, or (as RAND
     does) every live one redrawn. *)
  let scores = Array.map fst cache in
  if shuffled then
    Array.iteri
      (fun j _ ->
        scores.(j) <- (if j >= m - dead then Float.neg_infinity else draw ()))
      scores
  else begin
    for _ = 1 to Rng.int rng 5 do
      if m > 0 then scores.(Rng.int rng m) <- draw ()
    done;
    for _ = 1 to Rng.int rng 3 do
      if m > 0 then scores.(Rng.int rng m) <- Float.neg_infinity
    done
  end;
  let r = Tuple.make ~side:Tuple.R ~value:m ~arrival:m
  and s = Tuple.make ~side:Tuple.S ~value:(m + 1) ~arrival:m in
  let all =
    Array.append scores
      (match ends with Some (a, b) -> [| a; b |] | None -> [| draw (); draw () |])
  in
  let score (t : Tuple.t) = all.(t.Tuple.value) in
  let candidates = Array.to_list (Array.map snd cache) @ [ r; s ] in
  (score, candidates)

(* Sizes cover both sides of the sort's 64-candidate switch, up to the
   402 candidates of a capacity-400 step. *)
let engine_selection ~shape rng =
  let n = if Rng.bool rng then 2 + Rng.int rng 63 else 65 + Rng.int rng 338 in
  let score, candidates = engine_step ~shape ~n rng in
  let capacity =
    match Rng.int rng 4 with
    | 0 -> 1 + Rng.int rng n
    | 1 -> min n (1 + Rng.int rng 402)
    | _ -> max 1 (n - 2)
  in
  (capacity, score, candidates)

(* What a shuffled step of more than 64 candidates may cost.  Distinct
   scores take the bucket pass, unless the descent rule misses (~0.2%
   of shuffled steps), and then the bucket pass plus at most [n]
   repairs.  Tied scores may also take the uid pass; their work is
   gated by the test suite's worst cases.  Other shapes and smaller
   steps have no work check here. *)
let shuffled_work shape candidates did =
  let n = List.length candidates in
  match shape with
  | Some (Shuffled Spread) when n > 64 && did.bucketed && did.moves > 2 * n ->
    Some
      (Printf.sprintf "distinct scores: %d moves after the bucket pass"
         did.moves)
  | _ -> None

(* An engine step with one to three candidates scored NaN, in the
   cache's order or shuffled: the step must raise [Invalid_argument]
   naming the policy, the step and the uid of one of them. *)
let nan_violation rng =
  let shape = if Rng.bool rng then Engine_order else Shuffled Table in
  let capacity, score, candidates = engine_selection ~shape rng in
  let n = List.length candidates in
  let nan_uids =
    List.init (1 + Rng.int rng 3) (fun _ ->
        (List.nth candidates (Rng.int rng n)).Tuple.uid)
  in
  let score (t : Tuple.t) =
    if List.mem t.Tuple.uid nan_uids then Float.nan else score t
  in
  let policy = Baselines.prob_model ~partner_prob:score () in
  let cached = List.filteri (fun j _ -> j < n - 2) candidates in
  let r = List.nth candidates (n - 2) and s = List.nth candidates (n - 1) in
  let now = Rng.int rng 1000 in
  let expected uid =
    Printf.sprintf "%s: step %d: candidate uid %d scored NaN"
      policy.Policy.name now uid
  in
  let where =
    Printf.sprintf "(%d cands, NaN at uids %s)" n
      (String.concat "," (List.map string_of_int nan_uids))
  in
  match
    (Option.get policy.Policy.fast) ~src:(Policy.of_tuples cached)
      ~dst:(Policy.buffer ()) ~now ~r ~s ~capacity
  with
  | () -> Some ("a NaN score was ranked, not reported " ^ where)
  | exception Invalid_argument msg ->
    if List.exists (fun u -> msg = expected u) nan_uids then None
    else Some (Printf.sprintf "NaN reported as %S %s" msg where)

let keep_top_check =
  Check.make ~name:"oracle:keep-top/bounded-vs-sort" ~kind:Check.Oracle
    ~fast:"Policy.scored step (insertion from the cache order, or from a \
           bucket pass for shuffled scores), its diff and its list select"
    ~reference:"Ref_sim.keep_top_spec (full stable sort)"
    (fun ~seed ~count ->
      let rng = Rng.create (seed + 17) in
      let selection shape (capacity, score, candidates) =
        selection_violation ~work:(shuffled_work shape candidates) ~capacity
          ~score candidates
      in
      Check.sweep ~count
        ~note:
          "one selection routine == full stable sort (random, engine-ordered \
           and shuffled steps; a step of more than 64 distinct shuffled scores \
           buckets in <= 2n moves); a NaN score raises naming its uid"
        (fun i ->
          match i mod 4 with
          | 0 -> selection None (random_selection rng)
          | 1 -> selection (Some Engine_order) (engine_selection ~shape:Engine_order rng)
          | 2 -> (
            let shape = Shuffled (List.nth palettes (i / 4 mod List.length palettes)) in
            match engine_selection ~shape rng with
            | _, score, candidates when shape = Shuffled Wide ->
              (* Kept whole, so the full order is compared. *)
              selection (Some shape) (List.length candidates, score, candidates)
            | step -> selection (Some shape) step)
          | _ -> nan_violation rng))

(* --- Cache_sim and the caching selections vs list specs -------------- *)

let cache_spec keep = { Ref_sim.spec_name = "spec"; keep }

(* HEEB caching as it scored before the argmin rule: every candidate, on
   every reference, then [Ref_sim.keep_best_spec].  Direct H for an
   independent reference is [Hvalue.caching_independent]. *)
let heeb_spec ~reference ~l =
  let pred = ref reference in
  cache_spec (fun ~now:_ ~cached ~value ~hit ~capacity ->
      pred := !pred.Predictor.observe value;
      let score v = Hvalue.caching_independent ~reference:!pred ~l ~value:v in
      Ref_sim.keep_best_spec ~capacity ~score ~cached ~value ~hit)

(* Classic's scored eviction as a two-call fold over the list cache,
   newest admission first: every comparison scores both entries, ties
   to the earliest entry in list order. *)
let classic_spec ~observe ~score =
  cache_spec (fun ~now ~cached ~value ~hit ~capacity ->
      observe ~now ~value;
      if hit then cached
      else if List.length cached < capacity then value :: cached
      else if capacity = 0 then []
      else
        let worst =
          List.fold_left
            (fun acc v ->
              match acc with
              | None -> Some v
              | Some w -> if score ~now v < score ~now w then Some v else Some w)
            None cached
        in
        match worst with
        | None -> [ value ]
        | Some w ->
          if score ~now value >= score ~now w then
            value :: List.filter (fun v -> v <> w) cached
          else cached)

let lru_spec () =
  let last = Hashtbl.create 16 in
  classic_spec
    ~observe:(fun ~now ~value -> Hashtbl.replace last value now)
    ~score:(fun ~now:_ v ->
      match Hashtbl.find_opt last v with
      | Some t -> float_of_int t
      | None -> Float.neg_infinity)

let lfu_spec () =
  let counts = Hashtbl.create 16 in
  let count v = Option.value ~default:0 (Hashtbl.find_opt counts v) in
  classic_spec
    ~observe:(fun ~now:_ ~value -> Hashtbl.replace counts value (count value + 1))
    ~score:(fun ~now:_ v -> float_of_int (count v))

(* Belady by a forward scan for the next reference after [now]. *)
let lfd_spec reference =
  let n = Array.length reference in
  let rec next v t =
    if t >= n then max_int else if reference.(t) = v then t else next v (t + 1)
  in
  classic_spec
    ~observe:(fun ~now:_ ~value:_ -> ())
    ~score:(fun ~now v -> -.float_of_int (min (next v (now + 1)) (2 * (n + 1))))

(* LRU-k's score on the history of its [k] newest references. *)
let lruk_spec ~k =
  let refs = Hashtbl.create 16 in
  classic_spec
    ~observe:(fun ~now ~value ->
      let old = Option.value ~default:[] (Hashtbl.find_opt refs value) in
      Hashtbl.replace refs value (List.filteri (fun i _ -> i < k) (now :: old)))
    ~score:(fun ~now:_ v ->
      match Hashtbl.find_opt refs v with
      | Some times when List.length times >= k ->
        float_of_int (List.nth times (k - 1))
      | Some (t :: _) -> -1e12 +. float_of_int t
      | Some [] | None -> Float.neg_infinity)

let a0_spec ~prob =
  classic_spec ~observe:(fun ~now:_ ~value:_ -> ()) ~score:(fun ~now:_ v -> prob v)

(* RAND's list form: the draw indexes the cache newest first. *)
let rand_spec rng =
  cache_spec (fun ~now:_ ~cached ~value ~hit ~capacity ->
      if hit then cached
      else if capacity = 0 then []
      else
        let n = List.length cached in
        if n < capacity then value :: cached
        else
          let r = Rng.int rng n in
          value :: List.filteri (fun i _ -> i <> r) cached)

(* [fast] runs through [Cache_sim] and [spec] through the list replay
   [Ref_sim.cache_replay], each on its own cache from empty, the access
   at step [t] happening at time [nows.(t)]; the hit flags and the kept
   sets must agree at every step. *)
let cache_lockstep ~reference ~nows ~capacity (fast : Policy.cache) spec =
  let expected = Ref_sim.cache_replay ~reference ~nows ~capacity spec in
  let sim = Cache_sim.create ~policy:fast ~capacity in
  let sorted l = List.sort Int.compare l in
  let render l = String.concat ";" (List.map string_of_int (sorted l)) in
  let rec step t =
    if t >= Array.length reference then None
    else begin
      let now = nows.(t) in
      let hit = Cache_sim.access sim ~now reference.(t) in
      let kept = Cache_sim.contents sim in
      let shit, skept = expected.(t) in
      if hit <> shit || sorted kept <> sorted skept then
        Some
          (Printf.sprintf
             "%s cap %d t=%d now=%d value=%d: hit %b kept [%s] <> spec hit %b \
              kept [%s]"
             fast.Policy.cname capacity t now reference.(t) hit (render kept)
             shit (render skept))
      else step (t + 1)
    end
  in
  step 0

let cache_capacities = [| 0; 1; 2; 7; 25 |]

(* The domain spread over +-1e9, with [min_int] and [max_int] as values
   0 and 1. *)
let hostile rng domain =
  Array.init domain (function
    | 0 -> min_int
    | 1 -> max_int
    | v -> -1_000_000_000 + (v * 47_000_000) + Rng.int rng 1_000_000)

(* The walk family's random walk: steps of up to 2 either way from 0, so
   most reference paths leave the 17 values within 8 of the start (a
   walk of 60 steps spreads by ~11). *)
let walk_step =
  Pmf.of_assoc [ (-2, 1.0); (-1, 1.0); (0, 1.0); (1, 1.0); (2, 1.0) ]

let walk () = Random_walk.create ~start:0 ~drift:0 ~step:walk_step ()

(* Every caching policy with its list-shaped reference: the eight of
   [Classic] and [Heeb] (HEEB on a stationary model of [law]), then
   HEEB on a random walk, whose spec scores the Markov first-passage
   sum on a kernel of its own over the walk's window around each
   reference, started there.  A shorter L for the walk keeps the DP's
   reach (2 a step over L's horizon) to ~60 values.  [reference] is the
   script LFD looks ahead in. *)
let cache_policies ~seed ~law ~reference =
  let l = Lfun.exp_ ~alpha:4.0 in
  (* A0 on a tie-heavy model probability that is NaN for every value
     divisible by 7: the classic rule's NaN handling is compared too. *)
  let prob v = if v mod 7 = 0 then Float.nan else float_of_int (abs (v mod 3)) in
  let h ~now ~last v = float_of_int ((((3 * v) + last + now) land 7) / 3) in
  [|
    (fun () -> (Classic.lru (), lru_spec ()));
    (fun () -> (Classic.lfu (), lfu_spec ()));
    (fun () -> (Classic.lfd ~reference, lfd_spec reference));
    (fun () ->
      (Classic.rand_cache ~rng:(Rng.create seed), rand_spec (Rng.create seed)));
    (fun () -> (Classic.lruk ~k:2, lruk_spec ~k:2));
    (fun () -> (Classic.lfu_model ~prob, a0_spec ~prob));
    (fun () ->
      ( Heeb.caching ~reference:(Stationary.create law) ~l (),
        heeb_spec ~reference:(Stationary.create law) ~l ));
    (fun () ->
      ( Heeb.caching_fn ~h (),
        cache_spec (fun ~now ~cached ~value ~hit ~capacity ->
            Ref_sim.keep_best_spec ~capacity ~score:(h ~now ~last:value) ~cached
              ~value ~hit) ));
    (fun () ->
      let w = Random_walk.window and l = Lfun.exp_ ~alpha:1.0 in
      ( Heeb.caching ~reference:(walk ()) ~l (),
        cache_spec (fun ~now:_ ~cached ~value ~hit ~capacity ->
            let kernel =
              Markov.Dense.of_kernel
                (Markov.of_step ~step:walk_step ~drift:0 ~lo:(value - w)
                   ~hi:(value + w))
            in
            let score v = Hvalue.caching_markov ~kernel ~start:value ~l ~value:v in
            Ref_sim.keep_best_spec ~capacity ~score ~cached ~value ~hit) ));
  |]

let cache_families = 9
let lfd_family = 2
let walk_family = 8

(* A reference over [domain] values in which, half the time, the value
   just evicted is referenced again at once.  The evictions come from
   replaying [spec] on the reference as it is drawn, so the pattern
   holds for the policy under test whenever it agrees with its spec. *)
let evict_then_rereference rng ~domain ~length ~capacity spec =
  let cache = ref [] and last_evicted = ref None in
  Array.init length (fun now ->
      let value =
        match !last_evicted with
        | Some v when Rng.int rng 2 = 0 -> v
        | _ -> Rng.int rng domain
      in
      let hit = List.mem value !cache in
      let kept = spec.Ref_sim.keep ~now ~cached:!cache ~value ~hit ~capacity in
      last_evicted := List.find_opt (fun v -> not (List.mem v kept)) !cache;
      cache := kept;
      value)

type reference_shape = Stationary | Covering | Rereference | Walk

(* Case [i]: policy [i mod 9] of [cache_policies]; the walk family runs
   on a walk path, the others on reference shape [i / 9 mod 3]:
   - [Stationary]: a weighted draw over 2..41 values from [law], the
     law HEEB's model holds;
   - [Covering]: a capacity at least as large as the domain (nothing is
     ever evicted once every value is cached);
   - [Rereference]: every eviction's value re-referenced at once half
     the time (LFD, whose spec needs the whole script first, cycles
     through [capacity + 1] values instead, which re-references each
     value evicted within [capacity] steps).
   Capacities outside [Covering] are 0, 1, 2, 7 or 25.  [Stationary]
   and [Rereference] relabel the values over +-1e9, [min_int] and
   [max_int] included, when [i / 27] is odd; LFD runs on a non-monotone
   clock when [i / 54] is odd, so both its forward cursor and its
   binary-search fallback are compared.  The law's weights, and the
   generic scorer, take a few levels only, so equal scores are common
   and the value tie-break decides. *)
let cache_violation ~seed i =
  let rng = Rng.create (seed + (6007 * i)) in
  let family = i mod cache_families in
  let shape =
    if family = walk_family then Walk
    else [| Stationary; Covering; Rereference |].(i / cache_families mod 3)
  in
  let domain = 2 + Rng.int rng 40 in
  let length = 20 + Rng.int rng 120 in
  let capacity =
    match shape with
    | Covering -> domain + Rng.int rng 3
    | _ -> cache_capacities.(Rng.int rng (Array.length cache_capacities))
  in
  let law =
    Pmf.of_assoc (List.init domain (fun v -> (v, float_of_int (1 + Rng.int rng 3))))
  in
  let policies reference = cache_policies ~seed ~law ~reference in
  let reference =
    match shape with
    | Stationary -> Array.init length (fun _ -> Pmf.sample law rng)
    | Covering -> Array.init length (fun _ -> Rng.int rng domain)
    | Walk -> fst (Predictor.generate (walk ()) rng length)
    | Rereference when family = lfd_family ->
      Array.init length (fun t ->
          if Rng.int rng 8 = 0 then Rng.int rng domain else t mod (capacity + 1))
    | Rereference ->
      let _, spec = (policies [||]).(family) () in
      evict_then_rereference rng ~domain ~length ~capacity spec
  in
  let reference =
    match shape with
    | (Stationary | Rereference) when i / 27 mod 2 = 1 ->
      let relabel = hostile rng (1 + Array.fold_left max 0 reference) in
      Array.map (fun v -> relabel.(v)) reference
    | _ -> reference
  in
  let nows =
    if family = lfd_family && i / 54 mod 2 = 1 then
      Array.init length (fun t -> if Rng.int rng 4 = 0 then Rng.int rng length else t)
    else Array.init length Fun.id
  in
  let fast, spec = (policies reference).(family) () in
  cache_lockstep ~reference ~nows ~capacity fast spec

let cache_check =
  Check.make ~name:"oracle:cache-sim/slots-vs-list" ~kind:Check.Oracle
    ~fast:
      "Cache_sim stable slots + Itab hit test; Classic one-score folds, \
       Heeb.caching / caching_fn argmin"
    ~reference:
      "Ref_sim.cache_replay (list cache, List.mem hit test) on list specs: \
       Ref_sim.keep_best_spec (full sort), two-call folds"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"hit flags and kept sets equal, per step"
        (cache_violation ~seed))

(* --- FlowExpect: warm handle vs fresh solves ------------------------- *)

(* TOWER, capacity 2, look-ahead 3: [decide] through one shared handle
   against a fresh solve, six steps. *)
let flow_expect_tower_violation ~seed rep =
  let rng = Rng.create (seed + (104729 * rep)) in
  let r0, s0 = Config.predictors (Config.tower ()) in
  let handle = Flow_expect.handle () in
  let rp = ref r0 and sp = ref s0 in
  let cached = ref [] in
  let failure = ref None in
  let now = ref 0 in
  while !failure = None && !now < 6 do
    let t = !now in
    (* Values near the TOWER trend so the expected benefits are
       non-trivial (far-off values make every plan worthless). *)
    let rv = t + Rng.int rng 7 - 3 and sv = t + 1 + Rng.int rng 9 - 4 in
    rp := Predictor.advance !rp [| rv |];
    sp := Predictor.advance !sp [| sv |];
    let arrivals =
      [
        Tuple.make ~side:Tuple.R ~value:rv ~arrival:t;
        Tuple.make ~side:Tuple.S ~value:sv ~arrival:t;
      ]
    in
    let decide ?handle () =
      Flow_expect.decide ?handle ~r:!rp ~s:!sp ~lookahead:3 ~cached:!cached
        ~arrivals ~capacity:2 ()
    in
    let warm = decide ~handle () in
    let fresh = decide () in
    if
      not
        (tuples_equal
           (List.sort Tuple.compare warm.Flow_expect.keep)
           (List.sort Tuple.compare fresh.Flow_expect.keep))
      || warm.Flow_expect.expected_benefit <> fresh.Flow_expect.expected_benefit
    then
      failure :=
        Some
          (Printf.sprintf
             "warm plan (keep [%s], benefit %.17g) <> fresh (keep [%s], \
              benefit %.17g) at step %d"
             (render_selection warm.Flow_expect.keep)
             warm.Flow_expect.expected_benefit
             (render_selection fresh.Flow_expect.keep)
             fresh.Flow_expect.expected_benefit t)
    else cached := warm.Flow_expect.keep;
    incr now
  done;
  !failure

(* fig19's FLOOR at capacity 20: the policy's scored step, which keeps
   one graph and rewrites its costs, and [decide] through one shared
   handle, against a fresh [decide] per step.  The buffer must hold the
   fresh plan and its diff, as [Ref_sim.plan]'s step writes them; the
   warm plan must equal the fresh one, benefit bits included.  The first
   ten steps fill the cache, so the graph is rebuilt at every one of
   them; the rest are steady-state re-solves. *)
let flow_expect_floor_steps = 42

let same_buffer (a : Policy.buffer) (b : Policy.buffer) =
  let prefix x y n = Array.sub x 0 n = Array.sub y 0 n in
  a.n = b.n
  && prefix a.uids b.uids a.n
  && prefix a.values b.values a.n
  && a.evicted_n = b.evicted_n
  && prefix a.evicted b.evicted a.evicted_n
  && a.kept_r = b.kept_r
  && a.kept_s = b.kept_s

let flow_expect_floor_violation ~seed ~lookahead rep =
  let cfg = Config.floor () in
  let r0, s0 = Config.predictors cfg in
  let trace =
    Trace.generate ~r:r0 ~s:s0
      ~rng:(Rng.create (seed + (7907 * rep)))
      ~length:flow_expect_floor_steps
  in
  let policy = Flow_expect.policy ~r:r0 ~s:s0 ~lookahead () in
  let step = Option.get policy.Policy.fast in
  let handle = Flow_expect.handle () in
  let src = ref (Policy.buffer ()) and dst = ref (Policy.buffer ()) in
  let expect = Policy.buffer () in
  let rp = ref r0 and sp = ref s0 in
  let failure = ref None in
  let now = ref 0 in
  while !failure = None && !now < flow_expect_floor_steps do
    let t = !now in
    let r_t, s_t = Trace.arrivals trace t in
    rp := !rp.Predictor.observe r_t.Tuple.value;
    sp := !sp.Predictor.observe s_t.Tuple.value;
    let cached = Policy.tuples !src in
    let decide ?handle () =
      Flow_expect.decide ?handle ~r:!rp ~s:!sp ~lookahead ~cached
        ~arrivals:[ r_t; s_t ] ~capacity:20 ()
    in
    let fresh = decide () and warm = decide ~handle () in
    step ~src:!src ~dst:!dst ~now:t ~r:r_t ~s:s_t ~capacity:20;
    let fresh_step =
      Ref_sim.plan ~name:"fresh" (fun ~now:_ ~cached:_ ~arrivals:_ ~capacity:_ ->
          fresh.Flow_expect.keep)
    in
    Option.get fresh_step.Policy.fast ~src:!src ~dst:expect ~now:t ~r:r_t
      ~s:s_t ~capacity:20;
    let where = Printf.sprintf "FLOOR l=%d step %d" lookahead t in
    let plan (p : Flow_expect.plan) =
      Printf.sprintf "keep [%s], benefit %h" (render_selection p.keep)
        p.expected_benefit
    in
    if not (same_buffer !dst expect) then
      failure :=
        Some
          (Printf.sprintf "%s: policy step kept [%s], fresh solve [%s]" where
             (render_selection (Policy.tuples !dst))
             (render_selection fresh.Flow_expect.keep))
    else if plan warm <> plan fresh then
      failure :=
        Some
          (Printf.sprintf "%s: warm plan (%s) <> fresh (%s)" where (plan warm)
             (plan fresh));
    let tmp = !src in
    src := !dst;
    dst := tmp;
    incr now
  done;
  !failure

let flow_expect_lookaheads = [ 1; 3; 10 ]

let flow_expect_check =
  Check.make ~name:"oracle:flow-expect/warm-vs-fresh" ~kind:Check.Oracle
    ~fast:"Flow_expect.decide with a shared warm handle; the policy's scored \
           step on one kept graph"
    ~reference:"fresh per-step solves"
    (fun ~seed ~count ->
      Check.sweep ~count:(max 1 (count / 20))
        ~note:"warm-started decisions bit-equal fresh solves"
        (fun rep ->
          List.fold_left
            (fun failure lookahead ->
              match failure with
              | None -> flow_expect_floor_violation ~seed ~lookahead rep
              | Some _ -> failure)
            (flow_expect_tower_violation ~seed rep)
            flow_expect_lookaheads))

(* --- precomputed h1 curve / h2 surface vs exact sums ----------------- *)

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)

let h1_check =
  Check.make ~name:"oracle:h1/curve-vs-direct-sum" ~kind:Check.Oracle
    ~fast:
      "Precompute.walk_joining_curve (one rolling zero-trimmed level, banded \
       accumulation)"
    ~reference:"Precompute.walk_joining_h (naive convolutions, point lookups)"
    (fun ~seed:_ ~count:_ ->
      let step = Dist.discretized_normal ~sigma:1.0 ~bound:5 in
      let l = Lfun.exp_ ~alpha:6.0 in
      let failure = ref None in
      List.iter
        (fun drift ->
          let curve =
            Precompute.walk_joining_curve ~step ~drift ~l ~lo:(-6) ~hi:6
          in
          for d = -6 to 6 do
            let fast = Interp.Curve.eval curve d in
            let exact = Precompute.walk_joining_h ~step ~drift ~l ~d in
            if !failure = None && not (close fast exact) then
              failure :=
                Some
                  (Printf.sprintf
                     "h1(d=%d, drift=%d): curve %.17g vs direct %.17g" d
                     drift fast exact)
          done)
        [ 0; 2 ];
      match !failure with
      | None ->
        Check.Pass
          {
            cases = 26;
            note =
              "h1 curve matches the direct sum; alpha 6 (horizon 177) rolls \
               past the tails' underflow at step 60, so zero trimming runs";
          }
      | Some detail -> Check.Fail { detail; case = None })

(* The reference h1 curve: each level the [Convolve.pair] of the last
   one and the step (how [Convolve.Table] builds its levels), its zero
   tails trimmed, and [Pmf.add_into] for the banded accumulation — the
   arithmetic [Convolve.Rolling] must reproduce bit for bit. *)
let h1_reference ~step ~drift ~l ~lo ~hi =
  let h = Array.make (hi - lo + 1) 0.0 in
  let q = ref step in
  for delta = 1 to l.Lfun.horizon do
    if delta > 1 then q := Pmf.trim_zeros (Convolve.pair !q step);
    let w = l.Lfun.l delta in
    if w > 0.0 then
      Pmf.add_into !q ~dst:h ~lo:(lo - (drift * delta)) ~scale:w
  done;
  h

(* Case [i] of [seed]: a discretized normal or a random positive step,
   alpha in [2, 150] (horizons ~60 to ~4900 levels, deep enough for the
   tails to reach the subnormal range), drift in [-2, 2], a window of
   two or more cells within +-300. *)
let h1_kernel_case ~seed i =
  let rng = Rng.create (seed + (7919 * i)) in
  let step =
    if Rng.bool rng then
      Dist.discretized_normal
        ~sigma:(0.3 +. Rng.float rng 3.0)
        ~bound:(1 + Rng.int rng 9)
    else begin
      let cells =
        Array.init (1 + Rng.int rng 8) (fun _ -> 0.01 +. Rng.float rng 1.0)
      in
      (* A -0.0 weight is a valid one: one case in four puts it in a
         cell other than the first. *)
      let n = Array.length cells in
      if n >= 2 && Rng.int rng 4 = 0 then
        cells.(1 + Rng.int rng (n - 1)) <- -0.0;
      Pmf.create ~lo:(-Rng.int rng 4) cells
    end
  in
  let alpha = 2.0 +. Rng.float rng 148.0 in
  let drift = Rng.int rng 5 - 2 in
  let lo = Rng.int rng 600 - 300 in
  (step, alpha, drift, lo, lo + 1 + Rng.int rng (300 - lo))

let h1_kernel_violation ~seed i =
  let step, alpha, drift, lo, hi = h1_kernel_case ~seed i in
  let l = Lfun.exp_ ~alpha in
  let fast =
    Interp.Curve.samples
      (Precompute.walk_joining_curve ~step ~drift ~l ~lo ~hi)
  in
  let reference = h1_reference ~step ~drift ~l ~lo ~hi in
  let differs j =
    Int64.bits_of_float fast.(j) <> Int64.bits_of_float reference.(j)
  in
  let rec first j =
    if j >= Array.length fast then None
    else if differs j then Some j
    else first (j + 1)
  in
  Option.map
    (fun j ->
      Format.asprintf
        "step %a, alpha %.17g, drift %d, window [%d, %d]: h1(%d) kernel %h \
         vs table %h"
        Pmf.pp step alpha drift lo hi (lo + j) fast.(j) reference.(j))
    (first 0)

let h1_kernel_check =
  Check.make ~name:"oracle:h1/kernel-vs-table" ~kind:Check.Oracle
    ~fast:
      "Precompute.walk_joining_curve (Convolve.Rolling: two buffers, software \
       tiny products)"
    ~reference:
      "Convolve.pair levels (Convolve.Table's construction), zero-trimmed, \
       with Pmf.add_into"
    (fun ~seed ~count ->
      (* A case costs ~0.5 s on average (the reference's subnormal
         multiplies dominate), so one per 20 counted. *)
      Check.sweep ~count:(max 1 (count / 20))
        ~note:"curve bits equal the table-level build" (h1_kernel_violation ~seed))

let h2_check =
  Check.make ~name:"oracle:h2/bicubic-vs-exact-columns" ~kind:Check.Oracle
    ~fast:"Interp.Surface.eval over the bicubic h2 control grid"
    ~reference:"Precompute.ar1_caching_exact at the control nodes"
    (fun ~seed:_ ~count:_ ->
      let params = { Ar1.phi0 = 2.0; phi1 = 0.5; sigma = 2.0 } in
      let l = Lfun.exp_ ~alpha:12.0 in
      (* Spans divisible by (n − 1), so every control node is an exact
         integer and the exact-column lookup is meaningful. *)
      let lo = -8 and hi = 8 and n = 5 in
      let surface =
        Precompute.ar1_caching_surface params ~l ~vx_lo:lo ~vx_hi:hi
          ~x0_lo:lo ~x0_hi:hi ~nv:n ~nx:n ~horizon:256 ()
      in
      let step = (hi - lo) / (n - 1) in
      let failure = ref None in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let vx = lo + (i * step) and x0 = lo + (k * step) in
          let fast =
            Interp.Surface.eval surface (float_of_int vx) (float_of_int x0)
          in
          let exact =
            Precompute.ar1_caching_exact params ~l ~horizon:256 ~vx ~x0 ()
          in
          if !failure = None && not (close fast exact) then
            failure :=
              Some
                (Printf.sprintf
                   "h2(vx=%d, x0=%d): surface %.17g vs exact %.17g" vx x0
                   fast exact)
        done
      done;
      match !failure with
      | None ->
        Check.Pass
          { cases = n * n; note = "surface control nodes match exact DP" }
      | Some detail -> Check.Fail { detail; case = None })

(* --- OPT-offline: exhaustive search, online bound, capacity curve ----- *)

(* A trace small enough for exhaustive search: 2-8 steps over 0..2 or
   0..4, in half the cases with each value moved to within 2 of
   [min_int] or [max_int] one time in five each; capacity 1-2; band 0
   in half the cases, else 1 or 2; no window. *)
let tiny_case ~seed i =
  let rng = Rng.create (seed + (7741 * i)) in
  let steps = 2 + Rng.int rng 7 in
  let top = if Rng.bool rng then 2 else 4 in
  let extremes = Rng.bool rng in
  let value () =
    match Rng.int rng 5 with
    | 3 when extremes -> min_int + Rng.int rng 3
    | 4 when extremes -> max_int - Rng.int rng 3
    | _ -> Rng.int rng (top + 1)
  in
  let r_values = Array.init steps (fun _ -> value ()) in
  let s_values = Array.init steps (fun _ -> value ()) in
  let capacity = 1 + Rng.int rng 2 in
  let band = if Rng.bool rng then 0 else 1 + Rng.int rng 2 in
  let policy = List.nth Case.policy_names (Rng.int rng 4) in
  let seed = Rng.int rng 1_000_000 in
  { Case.r_values; s_values; capacity; band; window = None; policy; seed }

let opt_case ~seed i =
  if i mod 2 = 0 then gen_case ~allow_window:false ~seed (i / 2)
  else tiny_case ~seed (i / 2)

let opt ?(start = 0) ?capacity case =
  Opt_offline.max_results_from ~band:case.Case.band ~trace:(Case.trace case)
    ~capacity:(Option.value capacity ~default:case.Case.capacity)
    ~start ()

let opt_exhaustive_check =
  Check.of_violation ~name:"oracle:opt/exhaustive" ~kind:Check.Oracle
    ~fast:"Opt_offline.max_results (min-cost flow)"
    ~reference:"Ref_sim.opt_exhaustive (every selection at every step)"
    ~gen:tiny_case
    (fun case ->
      let exhaustive =
        Ref_sim.opt_exhaustive ~band:case.Case.band ~trace:(Case.trace case)
          ~capacity:case.Case.capacity ()
      in
      let flow = opt case in
      if flow = exhaustive then None
      else Some (Printf.sprintf "OPT-offline %d <> exhaustive %d" flow exhaustive))

let opt_bound_check =
  Check.of_violation ~name:"oracle:online-le-opt-offline" ~kind:Check.Oracle
    ~fast:"every online policy's total join count"
    ~reference:"Opt_offline.max_results upper bound" ~gen:opt_case
    (fun case ->
      let online =
        Join_sim.run ~trace:(Case.trace case) ~policy:(Case.policy case)
          ~capacity:case.Case.capacity ~band:case.Case.band ()
      in
      let bound = opt case in
      if online.Join_sim.total_results <= bound then None
      else
        Some
          (Printf.sprintf "online %s produced %d > OPT-offline %d" case.Case.policy
             online.Join_sim.total_results bound))

let opt_curve_check =
  Check.of_violation ~name:"oracle:opt/curve-vs-single-solves" ~kind:Check.Oracle
    ~fast:"Opt_offline.max_results_curve (one solve, breakpoint list)"
    ~reference:"Opt_offline.max_results_from per capacity 1-5"
    ~gen:(fun ~seed i -> opt_case ~seed:(seed + 31) i)
    (fun case ->
      let start = Case.length case / 4 in
      let capacities = [ 1; 2; 3; 4; 5 ] in
      let curve =
        Opt_offline.max_results_curve ~band:case.Case.band ~trace:(Case.trace case)
          ~capacities ~start ()
      in
      List.find_map
        (fun capacity ->
          let single = opt ~start ~capacity case in
          match List.assoc_opt capacity curve with
          | None -> Some (Printf.sprintf "cap %d: missing from curve" capacity)
          | Some from_curve when from_curve = single -> None
          | Some from_curve ->
            Some
              (Printf.sprintf "cap %d: curve says %d, single solve %d" capacity
                 from_curve single))
        capacities)

(* --- FlowExpect bounded by expectimax (Section 3.4) ------------------ *)

let expectimax_check =
  Check.make ~name:"oracle:flow-expect-le-expectimax" ~kind:Check.Oracle
    ~fast:"FlowExpect's chosen predetermined plan"
    ~reference:"exhaustive predetermined bound and adaptive expectimax optimum"
    (fun ~seed:_ ~count:_ ->
      let plan, adaptive, predetermined =
        Experiments.example_3_4_numbers ()
      in
      let b = plan.Flow_expect.expected_benefit in
      if b > predetermined +. 1e-9 then
        Check.Fail
          {
            detail =
              Printf.sprintf
                "FlowExpect benefit %.17g exceeds the exhaustive \
                 predetermined bound %.17g"
                b predetermined;
            case = None;
          }
      else if predetermined > adaptive +. 1e-9 then
        Check.Fail
          {
            detail =
              Printf.sprintf
                "predetermined bound %.17g exceeds the adaptive optimum \
                 %.17g"
                predetermined adaptive;
            case = None;
          }
      else
        Check.Pass
          {
            cases = 1;
            note =
              Printf.sprintf "%.3g <= %.3g <= %.3g (Section 3.4)" b
                predetermined adaptive;
          })

(* --- Mcmf vs independent cycle-cancelling oracle --------------------- *)

let mcmf_check =
  Check.make ~name:"oracle:mcmf/ssp-vs-cycle-cancel" ~kind:Check.Oracle
    ~fast:"Ssj_flow.Mcmf.solve (successive shortest paths)"
    ~reference:"Ssj_flow.Mcmf_check.min_cost_flow (BFS + cycle cancelling)"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"solver agrees with independent oracle" (fun i ->
          let spec, target = Ssj_flow.Mcmf_check.random_graph ~seed ~index:i in
          let source = 0 and sink = spec.Ssj_flow.Mcmf_check.nodes - 1 in
          let g = Ssj_flow.Mcmf.create spec.Ssj_flow.Mcmf_check.nodes in
          Array.iter
            (fun (src, dst, cap, cost) ->
              ignore (Ssj_flow.Mcmf.add_arc g ~src ~dst ~cap ~cost))
            spec.Ssj_flow.Mcmf_check.arcs;
          let fast = Ssj_flow.Mcmf.solve g ~source ~sink ~target in
          let slow_flow, slow_cost =
            Ssj_flow.Mcmf_check.min_cost_flow spec ~source ~sink ~target
          in
          if
            fast.Ssj_flow.Mcmf.flow = slow_flow
            && Float.abs (fast.Ssj_flow.Mcmf.cost -. slow_cost) <= 1e-6
          then None
          else
            Some
              (Printf.sprintf
                 "graph (seed=%d, index=%d): Mcmf (flow=%d cost=%.17g) vs \
                  oracle (flow=%d cost=%.17g)"
                 seed i fast.Ssj_flow.Mcmf.flow fast.Ssj_flow.Mcmf.cost slow_flow
                 slow_cost)))

(* --- Mcmf re-solve vs a freshly built graph -------------------------- *)

(* A graph re-solved after its costs are rewritten must give what a graph
   built from scratch with those costs gives, bit for bit: flow, cost and
   the flow on every arc. *)
let mcmf_resolve_violation ~seed i =
  let module M = Ssj_flow.Mcmf in
  let module C = Ssj_flow.Mcmf_check in
  let spec, target = C.random_graph ~seed ~index:i in
  let source = 0 and sink = spec.C.nodes - 1 in
  let rng = Rng.create (seed + (15485863 * i)) in
  let build costs =
    let g = M.create spec.C.nodes in
    let arcs =
      Array.mapi
        (fun j (src, dst, cap, _) -> M.add_arc g ~src ~dst ~cap ~cost:costs.(j))
        spec.C.arcs
    in
    (g, arcs)
  in
  let digest g arcs (r : M.result) =
    Printf.sprintf "flow %d cost %h arcs [%s]" r.M.flow r.M.cost
      (String.concat ","
         (Array.to_list (Array.map (fun a -> string_of_int (M.flow_on g a)) arcs)))
  in
  let original = Array.map (fun (_, _, _, c) -> c) spec.C.arcs in
  let kept, kept_arcs = build original in
  ignore (M.solve kept ~source ~sink ~target);
  (* Two rewrites: a quarter of the costs kept, the rest redrawn from
     the spec's range [-8, 8], so ties abound. *)
  let rec go round =
    if round = 2 then None
    else begin
      let costs =
        Array.map
          (fun c -> if Rng.int rng 4 = 0 then c else float_of_int (Rng.int rng 17 - 8))
          original
      in
      Array.iteri (fun j a -> M.set_cost kept a costs.(j)) kept_arcs;
      let resolved = digest kept kept_arcs (M.solve kept ~source ~sink ~target) in
      let fresh_g, fresh_arcs = build costs in
      let fresh = digest fresh_g fresh_arcs (M.solve fresh_g ~source ~sink ~target) in
      if resolved <> fresh then
        Some
          (Printf.sprintf
             "graph (seed=%d, index=%d) rewrite %d: re-solve %s, fresh %s" seed i
             round resolved fresh)
      else go (round + 1)
    end
  in
  go 0

let mcmf_resolve_check =
  Check.make ~name:"oracle:mcmf/resolve-vs-fresh" ~kind:Check.Oracle
    ~fast:"Ssj_flow.Mcmf.solve on a kept graph after set_cost"
    ~reference:"the same arcs and costs in a freshly built graph"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"two cost rewrites per graph, bit-equal"
        (mcmf_resolve_violation ~seed))

let all =
  [
    join_sim_indexed;
    keep_top_check;
    cache_check;
    flow_expect_check;
    h1_check;
    h1_kernel_check;
    h2_check;
    opt_exhaustive_check;
    opt_bound_check;
    opt_curve_check;
    expectimax_check;
    mcmf_check;
    mcmf_resolve_check;
  ]
