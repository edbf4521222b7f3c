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

(* Selection work: [policy.sort_moves] counts the sort's element moves
   (the inversions insertion repaired, plus [n] per bucket pass and per
   merge pass), [policy.sort_buckets] the steps that took the bucket
   pass and [policy.sort_merges] the steps that took the merge route. *)
let m_sort_moves = Obs.Counter.create "policy.sort_moves"
let m_sort_buckets = Obs.Counter.create "policy.sort_buckets"
let m_sort_merges = Obs.Counter.create "policy.sort_merges"

(* [sorted.(0 .. n - 1)] is the best-first order of the [n] scored
   candidates, of which the first [k] are kept. *)
let observe_selection (scores : float array) (sorted : int array) ~n ~k
    ~moves ~bucketed ~merged =
  Obs.Counter.incr m_selections;
  Obs.Counter.add m_sort_moves moves;
  if bucketed then Obs.Counter.incr m_sort_buckets;
  if merged then Obs.Counter.incr m_sort_merges;
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
   the sort's work arrays and what the last sort did.  A selector
   belongs to one policy instance and must not be shared across domains
   — the parallel runner builds one policy (hence one selector) per
   trace. *)
type selector = {
  mutable uids : int array;
  mutable values : int array;
  mutable scores : float array;
  mutable order : int array;
  mutable scratch : int array;
  mutable runs : int array;
      (* run boundaries, or the bucket pass's counts: length >= n + 1 *)
  mutable moves : int; (* element moves of the last sort *)
  mutable bucketed : bool; (* did the last sort take the bucket pass? *)
  mutable merged : bool; (* did the last sort take the merge route? *)
}

let selector () =
  {
    uids = [||];
    values = [||];
    scores = [||];
    order = [||];
    scratch = [||];
    runs = [||];
    moves = 0;
    bucketed = false;
    merged = false;
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

(* Best-first order: higher score first, then higher (newer) uid, with
   NaN below every number (Float.compare's total order).  Over distinct
   uids this is a strict total order, so every correct sort of a step's
   candidates yields the same permutation, whatever route it takes.

   [before scores uids a b]: candidate [a] strictly precedes [b], NaN
   included: the comparison for ties, NaN and the merge's run checks. *)
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

(* [before] on two NaN-free candidates given by score and uid, as one
   branch-free bit. *)
let[@inline] precedes (sa : float) (ua : int) (sb : float) (ub : int) =
  Bool.to_int (sa > sb) lor (Bool.to_int (sa = sb) land Bool.to_int (ua > ub))
  <> 0

(* [move src si dst di n]: [dst.(di .. di+n-1) <- src.(si .. si+n-1)]
   ([src != dst]).  A loop rather than [Array.blit]: the work arrays
   live in the major heap, where [Array.blit] stores every element
   through [caml_modify], ints included. *)
let move (src : int array) si (dst : int array) di n =
  for q = 0 to n - 1 do
    Array.unsafe_set dst (di + q) (Array.unsafe_get src (si + q))
  done

(* Merge the ordered runs [src.(lo .. mid-1)] and [src.(mid .. hi-1)]
   into [dst.(lo .. hi-1)].  Merging shuffled scores makes each
   comparison of distinct scores unpredictable, so that pick is
   branch-free; equal scores and NaN (rare there) take the full
   comparison. *)
let merge (scores : float array) (uids : int array) (src : int array)
    (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let a = Array.unsafe_get src !i and b = Array.unsafe_get src !j in
    let sa = Array.unsafe_get scores a and sb = Array.unsafe_get scores b in
    let t =
      if sa = sb || sa <> sa || sb <> sb then Bool.to_int (before scores uids b a)
      else Bool.to_int (sb > sa)
    in
    Array.unsafe_set dst !k (a + (t * (b - a)));
    j := !j + t;
    i := !i + 1 - t;
    incr k
  done;
  if !i < mid then move src !i dst !k (mid - !i)
  else move src !j dst !k (hi - !j)

(* Merge the ordered runs [arr.(runs.(r) .. runs.(r+1)-1)], [r < m],
   pairwise bottom-up, ping-ponging between [arr] and [sel.scratch];
   returns the array holding the result.  A pair already in order (the
   second run's head after the first's tail: a block of dead entries,
   say) is copied without comparisons.  [sel.moves] gains [len] per
   pass. *)
let merge_runs sel (scores : float array) (uids : int array) (arr : int array)
    len m =
  let runs = sel.runs and m = ref m in
  let src = ref arr and dst = ref sel.scratch in
  while !m > 1 do
    let k = ref 0 and r = ref 0 in
    while !r < !m do
      let lo = runs.(!r) in
      if !r + 1 < !m then begin
        let mid = runs.(!r + 1) and hi = runs.(!r + 2) in
        if before scores uids (Array.unsafe_get !src mid)
             (Array.unsafe_get !src (mid - 1))
        then merge scores uids !src !dst lo mid hi
        else move !src lo !dst lo (hi - lo);
        r := !r + 2
      end
      else begin
        move !src lo !dst lo (runs.(!r + 1) - lo);
        r := !r + 1
      end;
      runs.(!k) <- lo;
      incr k
    done;
    runs.(!k) <- len;
    m := !k;
    sel.moves <- sel.moves + len;
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  !src

(* Insert [arr.(from .. hi-1)], one at a time, into the ordered
   [arr.(0 .. from-1)] ([from >= 1]): a candidate in place costs one
   compare; one out of place moves up by a linear probe of up to 8
   slots, then by binary search when it travels further (an arrival
   outranking hundreds of dead entries), and costs a move per slot it
   passes.  [sel.moves] gains the moves.  Stops with [false] at a NaN
   score, leaving [arr] a permutation. *)
let insert_run sel (scores : float array) (uids : int array) (arr : int array)
    ~from ~hi =
  let moves = ref 0 and i = ref from and ok = ref true in
  while !ok && !i < hi do
    let x = Array.unsafe_get arr !i in
    let sx = Array.unsafe_get scores x and ux = Array.unsafe_get uids x in
    let y = Array.unsafe_get arr (!i - 1) in
    if sx <> sx then ok := false
    else begin
      if precedes sx ux (Array.unsafe_get scores y) (Array.unsafe_get uids y)
      then begin
        let lim = if !i > 8 then !i - 8 else 0 in
        let j = ref (!i - 1) in
        Array.unsafe_set arr !i y;
        let probing = ref true in
        while !probing && !j > lim do
          let z = Array.unsafe_get arr (!j - 1) in
          if precedes sx ux (Array.unsafe_get scores z) (Array.unsafe_get uids z)
          then begin
            Array.unsafe_set arr !j z;
            decr j
          end
          else probing := false
        done;
        if !probing && lim > 0 then begin
          (* The first slot of [0 .. lim-1] that [x] precedes. *)
          let l = ref 0 and h = ref lim in
          while !l < !h do
            let mid = (!l + !h) lsr 1 in
            let z = Array.unsafe_get arr mid in
            if precedes sx ux (Array.unsafe_get scores z) (Array.unsafe_get uids z)
            then h := mid
            else l := mid + 1
          done;
          for q = lim downto !l + 1 do
            Array.unsafe_set arr q (Array.unsafe_get arr (q - 1))
          done;
          j := !l
        end;
        Array.unsafe_set arr !j x;
        moves := !moves + (!i - !j)
      end;
      incr i
    end
  done;
  sel.moves <- sel.moves + !moves;
  !ok

(* The NaN route: natural runs under the full comparison, merged. *)
let sort_with_nan sel scores uids arr len =
  let runs = sel.runs and m = ref 1 in
  runs.(0) <- 0;
  for i = 1 to len - 1 do
    if before scores uids (Array.unsafe_get arr i) (Array.unsafe_get arr (i - 1))
    then begin
      runs.(!m) <- i;
      incr m
    end
  done;
  runs.(!m) <- len;
  merge_runs sel scores uids arr len !m

(* Insertion proceeds in blocks of this many candidates, and the switch
   rule looks at the first block and at each block boundary. *)
let block = 16

(* Split [arr.(from .. len-1)] into natural runs after the ordered
   [arr.(0 .. from-1)] and merge them, or take the NaN route if a score
   is NaN.  Run boundaries by a branch-free test: store the would-be boundary
   unconditionally (the next store overwrites a dead one) and advance
   [m] by the comparison bit; shuffled scores would otherwise
   mispredict on half the candidates. *)
let merge_from sel (scores : float array) (uids : int array) (arr : int array)
    len ~from =
  let runs = sel.runs and m = ref 1 and ok = ref true in
  runs.(0) <- 0;
  for q = from to len - 1 do
    let cur = Array.unsafe_get arr q and prev = Array.unsafe_get arr (q - 1) in
    let sc = Array.unsafe_get scores cur and sp = Array.unsafe_get scores prev in
    if sc <> sc || sp <> sp then ok := false;
    Array.unsafe_set runs !m q;
    m :=
      !m
      + Bool.to_int
          (precedes sc (Array.unsafe_get uids cur) sp (Array.unsafe_get uids prev))
  done;
  runs.(!m) <- len;
  if !ok then merge_runs sel scores uids arr len !m
  else sort_with_nan sel scores uids arr len

(* The bucket pass: a stable counting sort of [sel.order.(0 .. len-1)]
   on a monotone map of each score over the live [min, max] range onto
   [len] buckets, best bucket first, with the -inf (dead) candidates in
   one more bucket after them.  Candidates keep their input order inside
   a bucket, so the dead block stays in last step's uid order, and
   shuffled distinct scores land about one per bucket, leaving the
   insertion that follows O(len) expected inversions to repair.  The
   counts live in [sel.runs] and a candidate's bucket is computed once
   to count it and once to place it, so the pass needs no array of its
   own.  The result is written to [sel.scratch], which then swaps roles
   with [sel.order].  Returns [false], having moved nothing, when a
   score is NaN or the live range or its scale is not finite (a score
   of +inf, live scores +-1e308 apart): those keep the merge. *)
let bucket_pass sel (scores : float array) len =
  let arr = sel.order in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  let nan = ref false in
  for i = 0 to len - 1 do
    let s = Array.unsafe_get scores (Array.unsafe_get arr i) in
    if s <> s then nan := true
    else if s > Float.neg_infinity then begin
      if s < !lo then lo := s;
      if s > !hi then hi := s
    end
  done;
  let hi = !hi in
  let range = if hi >= !lo then hi -. !lo else 0.0 in
  let scale = if range > 0.0 then float_of_int (len - 1) /. range else 0.0 in
  if !nan || not (Float.is_finite range && Float.is_finite scale) then false
  else begin
    let counts = sel.runs and dst = sel.scratch in
    for b = 0 to len do
      Array.unsafe_set counts b 0
    done;
    (* [(hi - s) * scale] lies in [0, len - 1]: both roundings are
       monotone. *)
    for i = 0 to len - 1 do
      let s = Array.unsafe_get scores (Array.unsafe_get arr i) in
      let b =
        if s = Float.neg_infinity then len
        else int_of_float ((hi -. s) *. scale)
      in
      counts.(b) <- counts.(b) + 1
    done;
    let start = ref 0 in
    for b = 0 to len do
      let c = Array.unsafe_get counts b in
      Array.unsafe_set counts b !start;
      start := !start + c
    done;
    for i = 0 to len - 1 do
      let x = Array.unsafe_get arr i in
      let s = Array.unsafe_get scores x in
      let b =
        if s = Float.neg_infinity then len
        else int_of_float ((hi -. s) *. scale)
      in
      let p = Array.unsafe_get counts b in
      Array.unsafe_set dst p x;
      Array.unsafe_set counts b (p + 1)
    done;
    sel.scratch <- arr;
    sel.order <- dst;
    true
  end

(* Sort the candidate indices [sel.order.(0 .. len-1)] best-first;
   returns the array holding the result and records the work in
   [sel.moves] / [sel.bucketed] / [sel.merged].

   The input is the cache in last step's best-first order, then R and
   S.  A step changes few scores relative to their neighbours (PROB's
   counts move by one, LIFE's and HEEB's scores drift together), so the
   sort is straight insertion from that order ({!insert_run}), and its
   moves are the inversions the step introduced.

   For more than 64 candidates, two fixed rules guard insertion against
   O(n²).  (a) The input is shuffled (RAND redraws every score) if more
   than 4 of the first 16 candidates follow one they should precede
   (7.5 expected when shuffled; a step's own changes make one such
   descent per rescored or dying candidate): insertion then starts from
   the order of {!bucket_pass} instead, which costs [len] moves.  (b) If
   an ordered prefix of [i], a multiple of 16, took more than i²/8
   insertion moves (~i²/4 when shuffled; a step's own changes cost
   O(i); a bucket holding many tied scores in shuffled uid order costs
   as much), the rest goes to a merge of natural runs with the prefix
   as one run.  A NaN score, or a live range the bucket pass cannot
   map, sends the whole sort to natural runs merged under the full
   comparison, which orders NaN. *)
let sort_candidates sel (scores : float array) (uids : int array) len =
  sel.moves <- 0;
  sel.bucketed <- false;
  sel.merged <- true;
  let arr = sel.order in
  let descents = ref 0 in
  if len > 64 then
    for q = 1 to block - 1 do
      let x = Array.unsafe_get arr q and y = Array.unsafe_get arr (q - 1) in
      descents :=
        !descents
        + Bool.to_int
            (precedes (Array.unsafe_get scores x) (Array.unsafe_get uids x)
               (Array.unsafe_get scores y) (Array.unsafe_get uids y))
    done;
  if !descents > 4 && not (bucket_pass sel scores len) then
    merge_from sel scores uids arr len ~from:1
  else begin
    sel.bucketed <- !descents > 4;
    (* The bucket pass left its order in [sel.order]. *)
    let arr = sel.order in
    let s0 = Array.unsafe_get scores (Array.unsafe_get arr 0) in
    let ok = ref (s0 = s0) and i = ref 1 and shuffled = ref false in
    while !ok && (not !shuffled) && !i < len do
      let hi = min ((!i / block * block) + block) len in
      ok := insert_run sel scores uids arr ~from:!i ~hi;
      i := hi;
      shuffled := len > 64 && 8 * sel.moves > hi * hi
    done;
    let sorted =
      if not !ok then sort_with_nan sel scores uids arr len
      else if !i = len then begin
        sel.merged <- false;
        arr
      end
      else merge_from sel scores uids arr len ~from:!i
    in
    if sel.bucketed then sel.moves <- sel.moves + len;
    sorted
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
   cache positions are last step's best-first order, which is where the
   sort starts.  Requires [capacity > 0]. *)
let select_prescored sel ~capacity ~n0 ~(dst : buffer) =
  let n = n0 + 2 in
  let scores = sel.scores and uids = sel.uids and values = sel.values in
  let order = sel.order in
  for i = 0 to n - 1 do
    Array.unsafe_set order i i
  done;
  let sorted = sort_candidates sel scores uids n in
  let k = if n < capacity then n else capacity in
  if Obs.on () then
    observe_selection scores sorted ~n ~k ~moves:sel.moves
      ~bucketed:sel.bucketed ~merged:sel.merged;
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
