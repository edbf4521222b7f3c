open Ssj_stream

module Obs = Ssj_obs.Obs

(* Selection observability.  [policy.score_tie_pairs] counts adjacent
   equal-score pairs in the best-first order and
   [policy.boundary_score_ties] counts steps where the last kept and the
   first dropped candidate tie — the direct diagnostic for a degenerate
   sweep: when eviction is decided by the uid tie-break instead of the
   score, every policy makes the same decision and a benchmark over
   policies measures nothing. *)
let m_selections = Obs.Counter.create "policy.selections"
let m_candidates = Obs.Counter.create "policy.candidates"
let m_evictions = Obs.Counter.create "policy.evictions"
let m_dead_candidates = Obs.Counter.create "policy.dead_candidates"
let m_tie_pairs = Obs.Counter.create "policy.score_tie_pairs"
let m_boundary_ties = Obs.Counter.create "policy.boundary_score_ties"

(* [sorted.(0 .. n - 1)] is the best-first order of the [n] scored
   candidates, of which the first [k] are kept. *)
let observe_selection (scores : float array) (sorted : int array) ~n ~k =
  Obs.Counter.incr m_selections;
  Obs.Counter.add m_candidates n;
  if n > k then Obs.Counter.add m_evictions (n - k);
  let dead = ref 0 in
  for i = 0 to n - 1 do
    if scores.(i) = Float.neg_infinity then incr dead
  done;
  Obs.Counter.add m_dead_candidates !dead;
  let ties = ref 0 in
  for j = 1 to n - 1 do
    if scores.(sorted.(j - 1)) = scores.(sorted.(j)) then incr ties
  done;
  Obs.Counter.add m_tie_pairs !ties;
  if k < n && scores.(sorted.(k - 1)) = scores.(sorted.(k)) then
    Obs.Counter.incr m_boundary_ties

(* Engine-owned cache buffer: the current cache contents, best-first, as
   parallel int arrays [uids.(0 .. n-1)] / [values.(0 .. n-1)].  The uid
   encodes the rest of the tuple (uid = 2·arrival + side bit), so two
   unboxed arrays carry the whole cache: scoring loops read sequential
   machine ints and the per-step rewrite of the selection never touches
   the pointer write barrier.  The remaining fields describe the step
   that produced the contents — the previous cache's diff against them —
   so the join index can be maintained in O(changes) instead of
   rescanning both caches. *)
type buffer = {
  mutable uids : int array;
  mutable values : int array;
  mutable n : int;
  mutable evicted : int array; (* positions (in the previous buffer)
                                  of the cached tuples dropped this step *)
  mutable evicted_n : int;
  mutable kept_r : bool; (* did the R arrival enter the cache? *)
  mutable kept_s : bool;
}

let buffer () =
  {
    uids = [||];
    values = [||];
    n = 0;
    evicted = [||];
    evicted_n = 0;
    kept_r = false;
    kept_s = false;
  }

(* Room for [n] entries and [n] evictions; the old contents are
   dropped. *)
let reserve (b : buffer) n =
  if Array.length b.uids < n then begin
    let cap = max 16 (2 * n) in
    b.uids <- Array.make cap 0;
    b.values <- Array.make cap 0;
    b.evicted <- Array.make cap 0
  end

(* Write [ts] as the contents of [b], in list order. *)
let write_tuples (b : buffer) ts =
  let n = List.length ts in
  reserve b n;
  List.iteri
    (fun i (t : Tuple.t) ->
      b.uids.(i) <- t.uid;
      b.values.(i) <- t.value)
    ts;
  b.n <- n

let of_tuples ts =
  let b = buffer () in
  write_tuples b ts;
  b

let tuples (b : buffer) =
  List.init b.n (fun i -> Tuple.of_uid ~uid:b.uids.(i) ~value:b.values.(i))

type fast_select =
  src:buffer ->
  dst:buffer ->
  now:int ->
  r:Tuple.t ->
  s:Tuple.t ->
  capacity:int ->
  unit

type join = {
  name : string;
  select :
    now:int ->
    cached:Tuple.t list ->
    arrivals:Tuple.t list ->
    capacity:int ->
    Tuple.t list;
  fast : fast_select option;
}

let make_join ~name select = { name; select; fast = None }

(* List callers (the reference simulator, tests) step a buffer policy
   through the same code on a buffer built from the list. *)
let of_fast ~name (fast : fast_select) =
  let select ~now ~cached ~arrivals ~capacity =
    match arrivals with
    | [ r; s ] ->
      let dst = buffer () in
      fast ~src:(of_tuples cached) ~dst ~now ~r ~s ~capacity;
      tuples dst
    | _ -> invalid_arg (name ^ ": a step takes two arrivals, R then S")
  in
  { name; select; fast = Some fast }

(* A plan-based policy's [select] as a buffer step: the cache goes out as
   tuples and the plan comes back in the order the policy returned it.
   The diff is the cached positions whose uid the plan dropped; plans
   are small (FlowExpect, scripted tests), so a list scan per cached
   tuple is enough.  An invalid plan still yields a well-formed buffer,
   so the engine's validator reports it. *)
let fast_of_select select ~src ~dst ~now ~(r : Tuple.t) ~(s : Tuple.t)
    ~capacity =
  let kept = select ~now ~cached:(tuples src) ~arrivals:[ r; s ] ~capacity in
  reserve dst (max (List.length kept) src.n);
  write_tuples dst kept;
  let mem uid = List.exists (fun (t : Tuple.t) -> t.uid = uid) kept in
  dst.kept_r <- mem r.uid;
  dst.kept_s <- mem s.uid;
  let en = ref 0 in
  for i = 0 to src.n - 1 do
    if not (mem src.uids.(i)) then begin
      dst.evicted.(!en) <- i;
      incr en
    end
  done;
  dst.evicted_n <- !en

type cache = {
  cname : string;
  access :
    now:int -> cached:int list -> value:int -> hit:bool -> capacity:int -> int list;
}

let validate_join_selection ~cached ~arrivals ~capacity result =
  let candidates = cached @ arrivals in
  let mem t = List.exists (Tuple.equal t) candidates in
  if List.length result > capacity then
    Error
      (Printf.sprintf "selection of size %d exceeds capacity %d"
         (List.length result) capacity)
  else if not (List.for_all mem result) then
    Error "selection contains a tuple that is neither cached nor arriving"
  else begin
    let sorted = List.sort Tuple.compare result in
    let rec dup = function
      | a :: (b :: _ as rest) -> if Tuple.equal a b then true else dup rest
      | [ _ ] | [] -> false
    in
    if dup sorted then Error "selection contains duplicates" else Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Scored policies: one scoring kernel, one selection routine          *)
(* ------------------------------------------------------------------ *)

(* Per-policy scratch: the step's candidates (cache, then the R and S
   arrivals) as unboxed uid/value/score arrays reused across steps, plus
   the sort's work arrays.  A selector belongs to one policy instance and
   must not be shared across domains — the parallel runner builds one
   policy (hence one selector) per trace. *)
type selector = {
  mutable uids : int array;
  mutable values : int array;
  mutable scores : float array;
  mutable order : int array;
  mutable scratch : int array;
  mutable runs : int array; (* run boundaries, length >= n + 1 *)
}

let selector () =
  {
    uids = [||];
    values = [||];
    scores = [||];
    order = [||];
    scratch = [||];
    runs = [||];
  }

let ensure sel n =
  if Array.length sel.uids < n then begin
    let cap = max 16 (2 * n) in
    sel.uids <- Array.make cap 0;
    sel.values <- Array.make cap 0;
    sel.scores <- Array.make cap 0.0;
    sel.order <- Array.make cap 0;
    sel.scratch <- Array.make cap 0;
    sel.runs <- Array.make (cap + 1) 0
  end

(* [before scores uids a b]: candidate index [a] strictly precedes [b] in
   best-first order — higher score first, then higher (newer) uid.  This
   is exactly [Float.compare s_b s_a < 0 || (= 0 && uid_a > uid_b)] with
   Float.compare's total order (NaN below every number) spelled out as
   monomorphic float tests, so the sort below runs without closure
   dispatch or boxing. *)
let before (scores : float array) (uids : int array) (a : int) (b : int) =
  let sa = Array.unsafe_get scores a and sb = Array.unsafe_get scores b in
  if sa > sb then true
  else if sa < sb then false
  else if sa = sb then Array.unsafe_get uids a > Array.unsafe_get uids b
  else begin
    (* At least one NaN (never produced by in-repo policies). *)
    let na = sa <> sa and nb = sb <> sb in
    if na && nb then Array.unsafe_get uids a > Array.unsafe_get uids b else nb
  end

let merge (scores : float array) (uids : int array) (src : int array)
    (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let a = Array.unsafe_get src !i and b = Array.unsafe_get src !j in
    let sa = Array.unsafe_get scores a and sb = Array.unsafe_get scores b in
    if sa = sb || sa <> sa || sb <> sb then begin
      (* Equal scores or NaN: rare; the full comparison decides. *)
      if before scores uids b a then begin
        Array.unsafe_set dst !k b;
        incr j
      end
      else begin
        Array.unsafe_set dst !k a;
        incr i
      end;
      incr k
    end
    else begin
      (* Distinct finite scores: branch-free select.  Merging random
         score orders (RAND redraws every step) makes this comparison
         inherently unpredictable — data dependences beat the ~50%
         branch-mispredict tax. *)
      let t = Bool.to_int (sb > sa) in
      Array.unsafe_set dst !k (a + (t * (b - a)));
      j := !j + t;
      i := !i + 1 - t;
      incr k
    end
  done;
  (* Only one side can be non-empty; blit the drain (this is the whole
     merge when a long run of equal scores sits at the tail, e.g. a block
     of expired candidates all scored -inf). *)
  if !i < mid then Array.blit src !i dst !k (mid - !i)
  else if !j < hi then Array.blit src !j dst !k (hi - !j)

(* Natural-run merge sort of the candidate indices in [arr.(0 .. len-1)],
   best-first; stable; returns the array holding the sorted result ([arr]
   or [scratch]).  Adaptive on the simulator's actual step shapes:

   - candidates already in score order (the cache was sorted by last
     step's scores and many policies move scores coherently): one O(len)
     scan, no merging;
   - a long sorted prefix plus a handful of stragglers (typical when only
     the two arrivals and a few drifting scores are out of place): binary
     insertion of the tail, no full-width merge pass;
   - otherwise: merge the cheapest adjacent run pair first, so small runs
     coalesce among themselves before anything walks a long run (e.g.
     RAND's block of equally-scored dead candidates at the tail). *)
let sort_candidates (scores : float array) (uids : int array)
    (arr : int array) (scratch : int array) (runs : int array) len =
  let m = ref 1 in
  runs.(0) <- 0;
  for i = 1 to len - 1 do
    let cur = Array.unsafe_get arr i and prev = Array.unsafe_get arr (i - 1) in
    let sc = Array.unsafe_get scores cur
    and sp = Array.unsafe_get scores prev in
    if sc <> sc || sp <> sp then begin
      if before scores uids cur prev then begin
        runs.(!m) <- i;
        incr m
      end
    end
    else begin
      (* Branch-free [before scores uids cur prev]: store the would-be
         boundary unconditionally (the next store overwrites a dead one)
         and advance [m] by the comparison bit — random score orders
         would otherwise mispredict on half the elements. *)
      Array.unsafe_set runs !m i;
      let boundary =
        Bool.to_int (sc > sp)
        lor (Bool.to_int (sc = sp)
            land Bool.to_int
                   (Array.unsafe_get uids cur > Array.unsafe_get uids prev))
      in
      m := !m + boundary
    end
  done;
  runs.(!m) <- len;
  if !m = 1 then arr
  else if runs.(1) >= len - 8 then begin
    (* Long sorted prefix: binary-insert each straggler.  Inserting at the
       upper bound (first position the straggler strictly precedes) keeps
       equal elements in candidate order — the same stability the merge
       gives. *)
    for i = runs.(1) to len - 1 do
      let x = Array.unsafe_get arr i in
      let lo = ref 0 and hi = ref i in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if before scores uids x (Array.unsafe_get arr mid) then hi := mid
        else lo := mid + 1
      done;
      if !lo < i then begin
        Array.blit arr !lo arr (!lo + 1) (i - !lo);
        arr.(!lo) <- x
      end
    done;
    arr
  end
  else begin
    (* Bottom-up passes merging adjacent run pairs, ping-ponging between
       [arr] and [scratch].  The blit drain in [merge] makes a long
       equal-score run (RAND's block of dead candidates at the tail) cost
       one comparison stretch plus a memmove per pass rather than an
       element-wise walk. *)
    let src = ref arr and dst = ref scratch in
    while !m > 1 do
      let k = ref 0 and r = ref 0 in
      while !r < !m do
        let lo = runs.(!r) in
        if !r + 1 < !m then begin
          merge scores uids !src !dst lo runs.(!r + 1) runs.(!r + 2);
          r := !r + 2
        end
        else begin
          Array.blit !src lo !dst lo (runs.(!r + 1) - lo);
          r := !r + 1
        end;
        runs.(!k) <- lo;
        incr k
      done;
      runs.(!k) <- len;
      m := !k;
      let tmp = !src in
      src := !dst;
      dst := tmp
    done;
    !src
  end

(* Record dropped candidate [idx] in [dst]'s diff; returns the new
   eviction count.  Top level, so the loops below allocate no closure. *)
let drop (dst : buffer) ~n0 en idx =
  if idx < n0 then begin
    Array.unsafe_set dst.evicted en idx;
    en + 1
  end
  else begin
    if idx = n0 then dst.kept_r <- false else dst.kept_s <- false;
    en
  end

(* The one selection routine: sort the [n0 + 2] scored candidates in
   [sel] (cache positions [0 .. n0-1], then R, then S) best-first, write
   the best [capacity] into [dst] and record the step's diff.  The
   engine step has at most [capacity + 2] candidates, so a full sort is
   the whole cost.  Requires [capacity > 0]. *)
let select_prescored sel ~capacity ~n0 ~(dst : buffer) =
  let n = n0 + 2 in
  let scores = sel.scores and uids = sel.uids and values = sel.values in
  let order = sel.order in
  for i = 0 to n - 1 do
    Array.unsafe_set order i i
  done;
  let sorted = sort_candidates scores uids order sel.scratch sel.runs n in
  let k = if n < capacity then n else capacity in
  if Obs.on () then observe_selection scores sorted ~n ~k;
  reserve dst n;
  let out_u = dst.uids and out_v = dst.values in
  for j = 0 to k - 1 do
    let idx = Array.unsafe_get sorted j in
    Array.unsafe_set out_u j (Array.unsafe_get uids idx);
    Array.unsafe_set out_v j (Array.unsafe_get values idx)
  done;
  dst.n <- k;
  dst.kept_r <- true;
  dst.kept_s <- true;
  (* The sorted suffix is exactly the dropped set — in the steady state
     two tuples. *)
  let en = ref 0 in
  for j = k to n - 1 do
    en := drop dst ~n0 !en (Array.unsafe_get sorted j)
  done;
  dst.evicted_n <- !en

type kernel =
  now:int -> n:int -> uids:int array -> values:int array -> scores:float array ->
  unit

let scored ~name ?observe ?after (kernel : kernel) =
  let sel = selector () in
  let fast ~(src : buffer) ~(dst : buffer) ~now ~(r : Tuple.t) ~(s : Tuple.t)
      ~capacity =
    (match observe with Some f -> f ~r ~s | None -> ());
    let n0 = src.n in
    if capacity <= 0 then begin
      (* Empty selection: every cached tuple and both arrivals drop. *)
      reserve dst n0;
      for i = 0 to n0 - 1 do
        dst.evicted.(i) <- i
      done;
      dst.evicted_n <- n0;
      dst.n <- 0;
      dst.kept_r <- false;
      dst.kept_s <- false
    end
    else begin
      let n = n0 + 2 in
      ensure sel n;
      let su = src.uids and sv = src.values in
      let cu = sel.uids and cv = sel.values in
      for i = 0 to n0 - 1 do
        Array.unsafe_set cu i (Array.unsafe_get su i);
        Array.unsafe_set cv i (Array.unsafe_get sv i)
      done;
      sel.uids.(n0) <- r.uid;
      sel.values.(n0) <- r.value;
      sel.uids.(n0 + 1) <- s.uid;
      sel.values.(n0 + 1) <- s.value;
      kernel ~now ~n ~uids:sel.uids ~values:sel.values ~scores:sel.scores;
      select_prescored sel ~capacity ~n0 ~dst
    end;
    match after with Some f -> f ~now ~src ~dst | None -> ()
  in
  of_fast ~name fast
