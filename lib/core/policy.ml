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
   (the inversions insertion repaired, plus [n] per counting pass) and
   [policy.sort_buckets] the steps that took the bucket pass. *)
let m_sort_moves = Obs.Counter.create "policy.sort_moves"
let m_sort_buckets = Obs.Counter.create "policy.sort_buckets"

(* [sorted.(0 .. n - 1)] is the best-first order of the [n] scored
   candidates, of which the first [k] are kept. *)
let observe_selection (scores : float array) (sorted : int array) ~n ~k
    ~moves ~bucketed =
  Obs.Counter.incr m_selections;
  Obs.Counter.add m_sort_moves moves;
  if bucketed then Obs.Counter.incr m_sort_buckets;
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

(* ------------------------------------------------------------------ *)
(* Caching: stable slots, per-slot scores, one argmin                  *)
(* ------------------------------------------------------------------ *)

(* The cache as [Cache_sim] holds it: [n] occupied slots, plus slot [n]
   staging the fetched value on a miss.  A value keeps its slot from
   admission to eviction, so a policy's per-slot state stays put. *)
type slots = {
  values : int array;
  stamps : int array; (* admission order: larger = admitted later *)
  scores : float array; (* the policy's, one per slot *)
  mutable n : int;
  mutable slot : int; (* the referenced value's slot; [n] on a miss *)
}

let slots ~capacity =
  let m = max 0 capacity + 1 in
  {
    values = Array.make m 0;
    stamps = Array.make m 0;
    scores = Array.make m 0.0;
    n = 0;
    slot = 0;
  }

let no_drop = -1

type cache = {
  cname : string;
  access :
    now:int -> cached:slots -> value:int -> hit:bool -> capacity:int -> int;
}

type tie = Newest_admitted | Smaller_value

(* Classic's rule is the list scan it replaces, newest-first with a
   strict [<]: the lowest score, ties to the newest admission — except
   that a NaN in the newest slot stops the scan there, and any other
   NaN is never picked.  The fetched value then goes in iff its score is
   at least the victim's.  Stamps are read only on a score tie, and the
   newest slot is looked up only when a NaN was seen.  HEEB's is a total
   order over all [n + 1] candidates, so the slot order does not
   matter.  Every float lives in a local ref, which the compiler keeps
   unboxed. *)
let drop_argmin tie (c : slots) =
  let n = c.n and scores = c.scores in
  match tie with
  | Smaller_value ->
    let values = c.values in
    let w = ref n in
    let ws = ref (Array.unsafe_get scores n) in
    let wv = ref (Array.unsafe_get values n) in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get scores i and v = Array.unsafe_get values i in
      let cmp = Float.compare s !ws in
      if cmp < 0 || (cmp = 0 && v < !wv) then begin
        w := i;
        ws := s;
        wv := v
      end
    done;
    !w
  | Newest_admitted ->
    if n = 0 then n
    else begin
      let stamps = c.stamps in
      let w = ref (-1) and ws = ref Float.infinity and wst = ref min_int in
      let nan = ref false in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get scores i in
        if s < !ws then begin
          w := i;
          ws := s;
          wst := Array.unsafe_get stamps i
        end
        else if s = !ws then begin
          let st = Array.unsafe_get stamps i in
          if st > !wst then begin
            w := i;
            wst := st
          end
        end
        else if s <> s then nan := true
      done;
      let w =
        if not !nan then !w
        else begin
          let newest = ref 0 in
          for i = 1 to n - 1 do
            if Array.unsafe_get stamps i > Array.unsafe_get stamps !newest then
              newest := i
          done;
          if Float.is_nan (Array.unsafe_get scores !newest) then !newest else !w
        end
      in
      if Array.unsafe_get scores n >= Array.unsafe_get scores w then w else n
    end

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
  mutable keys : int array; (* a counting pass's key per candidate *)
  mutable counts : int array; (* its counts: length >= n + 1 *)
  mutable moves : int; (* element moves of the last sort *)
  mutable bucketed : bool; (* did the last sort take the bucket pass? *)
}

let selector () =
  {
    uids = [||];
    values = [||];
    scores = [||];
    order = [||];
    scratch = [||];
    keys = [||];
    counts = [||];
    moves = 0;
    bucketed = false;
  }

let ensure sel n =
  if Array.length sel.uids < n then begin
    let cap = max 16 (2 * n) in
    sel.uids <- Array.make cap 0;
    sel.values <- Array.make cap 0;
    sel.scores <- Array.make cap 0.0;
    sel.order <- Array.make cap 0;
    sel.scratch <- Array.make cap 0;
    sel.keys <- Array.make cap 0;
    sel.counts <- Array.make (cap + 1) 0
  end

(* Raised by the sort with the uid of a candidate scored NaN, which has
   no place in the order; {!scored} reports it with the policy and the
   step. *)
exception Nan_score of int

(* Best-first order: higher score first, then higher (newer) uid.  Over
   distinct uids and scores that are not NaN this is a strict total
   order, so every correct sort of a step's candidates yields the same
   permutation.

   [precedes sa ua sb ub]: a candidate of score [sa] and uid [ua]
   strictly precedes one of [sb] and [ub], as one branch-free bit. *)
let[@inline] precedes (sa : float) (ua : int) (sb : float) (ub : int) =
  Bool.to_int (sa > sb) lor (Bool.to_int (sa = sb) land Bool.to_int (ua > ub))
  <> 0

(* Insert [arr.(from .. hi-1)], one at a time, into the ordered
   [arr.(0 .. from-1)] ([from >= 1]): a candidate in place costs one
   compare; one out of place moves up by a linear probe of up to 8
   slots, then by binary search when it travels further (an arrival
   outranking hundreds of dead entries), and costs a move per slot it
   passes.  [sel.moves] gains the moves.  Raises [Nan_score] at a NaN
   score. *)
let insert_run sel (scores : float array) (uids : int array) (arr : int array)
    ~from ~hi =
  let moves = ref 0 in
  for i = from to hi - 1 do
    let x = Array.unsafe_get arr i in
    let sx = Array.unsafe_get scores x and ux = Array.unsafe_get uids x in
    if sx <> sx then raise (Nan_score ux);
    let y = Array.unsafe_get arr (i - 1) in
    if precedes sx ux (Array.unsafe_get scores y) (Array.unsafe_get uids y)
    then begin
      let lim = if i > 8 then i - 8 else 0 in
      let j = ref (i - 1) in
      Array.unsafe_set arr i y;
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
      moves := !moves + (i - !j)
    end
  done;
  sel.moves <- sel.moves + !moves

(* Insertion proceeds in blocks of this many candidates, and the switch
   rule looks at the first block and at each block boundary. *)
let block = 16

(* One stable counting sort of [sel.order.(0 .. len-1)] on [sel.keys]
   (a key in [0, len] per candidate), written to [sel.scratch], which
   then swaps roles with [sel.order]; [sel.moves] gains [len].  Returns
   the largest count of a key below [len]. *)
let distribute sel len =
  let keys = sel.keys and counts = sel.counts in
  for b = 0 to len do
    Array.unsafe_set counts b 0
  done;
  for x = 0 to len - 1 do
    let b = Array.unsafe_get keys x in
    counts.(b) <- counts.(b) + 1
  done;
  let start = ref 0 and fullest = ref 0 in
  for b = 0 to len do
    let c = Array.unsafe_get counts b in
    if c > !fullest && b < len then fullest := c;
    Array.unsafe_set counts b !start;
    start := !start + c
  done;
  let arr = sel.order and dst = sel.scratch in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get arr i in
    let b = Array.unsafe_get keys x in
    let p = Array.unsafe_get counts b in
    Array.unsafe_set dst p x;
    Array.unsafe_set counts b (p + 1)
  done;
  sel.scratch <- arr;
  sel.order <- dst;
  sel.moves <- sel.moves + len;
  !fullest

(* The factor that maps [0, range] onto [0, len - 1]: at most
   [Float.max_float], which maps a [range] too small for the quotient
   (a subnormal one, or 0) below [len - 1]. *)
let[@inline] scale_onto len range =
  let scale = float_of_int (len - 1) /. range in
  if scale < Float.max_float then scale else Float.max_float

(* Score keys for {!distribute}: +inf in bucket 0, the finite scores
   mapped monotonely from [top = max / 2] down onto [0, len - 1], -inf
   (dead) in bucket [len].  Halving first keeps [top - s / 2] within
   [0, half] for every finite [s], so a live range of +-1e308 does not
   overflow, and [scale = scale_onto len half].  Every rounding is
   monotone, so a better score never gets a later key.  Inlined, as is
   [scale_onto], so no float is boxed to cross a call. *)
let[@inline] score_keys sel (scores : float array) len ~top ~scale =
  let keys = sel.keys in
  for x = 0 to len - 1 do
    let s = Array.unsafe_get scores x in
    Array.unsafe_set keys x
      (if s = Float.infinity then 0
       else if s = Float.neg_infinity then len
       else int_of_float ((top -. (s *. 0.5)) *. scale))
  done

(* A live bucket holding more candidates than this, and more than this
   many ties out of uid order, make the bucket pass order by uid
   first. *)
let crowded = 16

(* Adjacent pairs in [sel.order.(0 .. len-1)] of equal score whose
   lower uid comes first. *)
let misordered_ties sel (scores : float array) (uids : int array) len =
  let arr = sel.order and count = ref 0 in
  for i = 1 to len - 1 do
    let x = Array.unsafe_get arr i and y = Array.unsafe_get arr (i - 1) in
    count :=
      !count
      + Bool.to_int
          (Array.unsafe_get scores x = Array.unsafe_get scores y
          && Array.unsafe_get uids x > Array.unsafe_get uids y)
  done;
  !count

(* The bucket pass: a stable counting sort of the candidates on their
   score keys, best bucket first.  Candidates keep their input order
   inside a bucket, so the dead block stays in last step's uid order,
   and shuffled distinct scores land about one per bucket, leaving the
   insertion that follows O(len) expected inversions to repair.  Tied
   scores share a bucket, in input order.  When a live bucket is
   crowded and its ties are out of uid order (a few distinct values,
   shuffled), the pass is run again after a stable pass on uid keys
   (higher uid first), which leaves ties in uid order: an LSD sort on
   (score, uid), up to the bucket widths.  A crowded bucket of distinct
   scores, or of ties already in order (HEEB's equal values, kept in
   last step's order), does not need it, and neither does the dead
   bucket: RAND's dead block is in last step's uid order, and checking
   that on every step would cost a scan of it.  Raises [Nan_score] at a
   NaN score. *)
let bucket_pass sel (scores : float array) (uids : int array) len =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  for x = 0 to len - 1 do
    let s = Array.unsafe_get scores x in
    if s <> s then raise (Nan_score (Array.unsafe_get uids x));
    if s > Float.neg_infinity && s < Float.infinity then begin
      if s < !lo then lo := s;
      if s > !hi then hi := s
    end
  done;
  let top = !hi *. 0.5 in
  let scale = scale_onto len (top -. (!lo *. 0.5)) in
  sel.bucketed <- true;
  score_keys sel scores len ~top ~scale;
  if
    distribute sel len > crowded
    && misordered_ties sel scores uids len > crowded
  then begin
    let umin = ref max_int and umax = ref min_int in
    for x = 0 to len - 1 do
      let u = Array.unsafe_get uids x in
      if u < !umin then umin := u;
      if u > !umax then umax := u
    done;
    let umax = float_of_int !umax in
    let uscale = scale_onto len (umax -. float_of_int !umin) in
    for x = 0 to len - 1 do
      Array.unsafe_set sel.keys x
        (int_of_float ((umax -. float_of_int (Array.unsafe_get uids x)) *. uscale))
    done;
    ignore (distribute sel len);
    score_keys sel scores len ~top ~scale;
    ignore (distribute sel len)
  end

(* Sort the candidate indices [sel.order.(0 .. len-1)] best-first;
   returns the array holding the result and records the work in
   [sel.moves] / [sel.bucketed].  Raises [Nan_score] if a score is NaN.

   The input is the cache in last step's best-first order, then R and
   S.  A step changes few scores relative to their neighbours (PROB's
   counts move by one, LIFE's and HEEB's scores drift together), so the
   sort is straight insertion from that order ({!insert_run}), and its
   moves are the inversions the step introduced.

   For more than 64 candidates, two fixed rules put {!bucket_pass} in
   front of insertion, so that a shuffled input costs O(n) expected
   moves instead of O(n²).  (a) Before insertion: more than 4 of the
   first 16 candidates follow one they should precede (7.5 expected
   when shuffled, as RAND redraws every score; a step's own changes
   make one such descent per rescored or dying candidate).  (b) During
   it: an ordered prefix of [i], a multiple of 16, took more than i²/8
   insertion moves (~i²/4 when shuffled; a step's own changes cost
   O(i)); insertion then starts over from the bucket pass's order.
   Either way insertion finishes the sort. *)
let sort_candidates sel (scores : float array) (uids : int array) len =
  sel.moves <- 0;
  sel.bucketed <- false;
  let arr = sel.order in
  let x0 = Array.unsafe_get arr 0 in
  let s0 = Array.unsafe_get scores x0 in
  if s0 <> s0 then raise (Nan_score (Array.unsafe_get uids x0));
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
  if !descents > 4 then bucket_pass sel scores uids len;
  let i = ref 1 in
  while !i < len do
    let hi = min ((!i / block * block) + block) len in
    insert_run sel scores uids sel.order ~from:!i ~hi;
    i := hi;
    if len > 64 && (not sel.bucketed) && 8 * sel.moves > hi * hi then begin
      bucket_pass sel scores uids len;
      i := 1
    end
  done;
  sel.order

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
      ~bucketed:sel.bucketed;
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
      match select_prescored sel ~capacity ~n0 ~dst with
      | () -> ()
      | exception Nan_score uid ->
        invalid_arg
          (Printf.sprintf "%s: step %d: candidate uid %d scored NaN" name now uid)
    end;
    match after with Some f -> f ~now ~src ~dst | None -> ()
  in
  of_fast ~name fast
