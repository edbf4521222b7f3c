(** The unified cache-replacement-policy interface — Section 3.3's
    algorithm signature made executable.

    A policy is a stateful decision procedure.  The simulator steps it
    exactly once per time step, in time order; state (history counts,
    predictors, memoised H values) lives inside the closure.

    Two variants mirror the paper's two problems.  A {!join} policy sees
    the current cache contents and the new arrivals, and decides the new
    contents (a subset of cached ∪ arrivals of size ≤ capacity).  Every
    join policy is a {!scored} one: it scores the candidates, and one
    shared selection routine keeps the best and writes the engine's
    buffer, so no policy can write an invalid selection.  A
    {!cache} policy serves the caching problem (a reference stream
    against a database relation, where cache entries are database-tuple
    values): it sees the cache as stable {!slots} with per-slot scores,
    and on a full miss names the one candidate to drop, picked by the
    shared {!drop_argmin}. *)

type buffer = {
  mutable uids : int array;
  mutable values : int array;
  mutable n : int;
  mutable evicted : int array;
  mutable evicted_n : int;
  mutable kept_r : bool;
  mutable kept_s : bool;
}
(** Engine-owned cache buffer: current cache contents, best-first, as
    parallel unboxed arrays [uids.(0 .. n-1)] / [values.(0 .. n-1)].
    The uid encodes the rest of the tuple ([uid = 2·arrival + side] with
    side R = 0, S = 1), so the two int arrays carry the whole cache
    without pointer stores.  The remaining fields report the diff of the
    step that produced the contents — [evicted.(0 .. evicted_n-1)] are
    the *positions in the previous buffer* of the cached tuples dropped,
    [kept_r]/[kept_s] whether each arrival entered — letting the engine
    maintain its join index in O(changes).  Every step records it. *)

val buffer : unit -> buffer

val reserve : buffer -> int -> unit
(** [reserve b n] gives [b] room for [n] entries and [n] evictions.  The
    old contents may be dropped: call it before writing a step. *)

val of_tuples : Ssj_stream.Tuple.t list -> buffer
(** A buffer holding the tuples in list order, with an empty diff. *)

val tuples : buffer -> Ssj_stream.Tuple.t list
(** The buffer's contents as tuples, in buffer order — exact, via
    {!Ssj_stream.Tuple.of_uid}. *)

type fast_select =
  src:buffer ->
  dst:buffer ->
  now:int ->
  r:Ssj_stream.Tuple.t ->
  s:Ssj_stream.Tuple.t ->
  capacity:int ->
  unit
(** One engine step: read the cache from [src], write the new selection
    into [dst] together with its diff. *)

type join = {
  name : string;
  select :
    now:int ->
    cached:Ssj_stream.Tuple.t list ->
    arrivals:Ssj_stream.Tuple.t list ->
    capacity:int ->
    Ssj_stream.Tuple.t list;
  fast : fast_select option;
      (** the buffer step; {!scored} always sets it *)
}
(** A joining policy, as {!scored} builds it: [fast] is the policy, and
    [select ~now ~cached ~arrivals ~capacity] is a list adapter over it
    for list-based callers, requiring [arrivals = [r; s]]; it returns a
    subset of [cached ∪ arrivals] of size ≤ [capacity]. *)

type kernel =
  now:int ->
  capacity:int ->
  n:int ->
  uids:int array ->
  values:int array ->
  scores:float array ->
  unit
(** A scored policy's scoring: fill [scores.(0 .. n-1)] for the
    candidates [uids/values.(0 .. n-1)] — the cached tuples first, then
    the R arrival, then the S arrival.  One call per step, so the loop
    over candidates runs without a closure call or float boxing per
    candidate.  Stateful kernels (RAND's draws) see the candidates in
    that order.  The step keeps [min capacity n] candidates; [capacity]
    is always positive here, and only a kernel that decides the kept
    set itself (FlowExpect) reads it. *)

val scored :
  name:string ->
  ?observe:(r:Ssj_stream.Tuple.t -> s:Ssj_stream.Tuple.t -> unit) ->
  ?after:(now:int -> src:buffer -> dst:buffer -> unit) ->
  kernel ->
  join
(** [scored ~name ?observe ?after kernel] is the one way to write a
    joining policy.  Each step:

    + [observe ~r ~s] sees the two arrivals (history, predictors);
    + with [capacity > 0], the candidates are copied into scratch
      arrays, [kernel] scores them and the [capacity] best are kept,
      best-first: higher score first, ties to the newer (higher) uid;
    + [after ~now ~src ~dst] sees the result (learning from
      evictions).

    The step records the exact diff.  Scratch
    arrays belong to the policy instance; do not share one across
    domains.

    Selection sorts the candidates by (score, uid).  Over distinct uids
    that is a strict total order, so the kept set and its order do not
    depend on how the sort gets there.  A NaN score has no place in it:
    the step raises [Invalid_argument] naming the policy, the step and
    the candidate's uid.  The sort is one route: straight insertion from
    the cache's previous best-first order, where a candidate in place
    costs one compare, so a step pays for the inversions its new scores
    introduced (Obs counter [policy.sort_moves]).  With more than 64
    candidates, a shuffled input is first put in order by a stable
    bucket pass over the finite score range, +∞ first and −∞ last
    ([policy.sort_buckets]), so insertion repairs O(n) expected
    inversions.  The pass runs before insertion when more than 4 of the
    first 16 candidates are out of order (RAND's redrawn scores), or
    during it when an ordered prefix of [i], a multiple of 16, took more
    than i²/8 moves; insertion then starts over from its order.  A
    crowded live bucket of ties out of uid order is first ordered by
    uid. *)

type slots = {
  values : int array;
  stamps : int array;
  scores : float array;
  mutable n : int;
  mutable slot : int;
}
(** The caching problem's cache, as {!Ssj_engine.Cache_sim} holds it:
    [values.(0 .. n-1)] are the cached values, one per stable slot — a
    value keeps its slot from admission to eviction.  [stamps.(i)] is
    slot [i]'s admission stamp (larger = admitted later).
    [scores.(i)] belongs to the policy: the per-slot score it keeps.
    [slot] is the referenced value's slot: where it is cached on a hit,
    and [n] on a miss, where slot [n] stages the fetched value (its
    value and its would-be stamp).  The arrays have room for
    [capacity + 1] slots. *)

val slots : capacity:int -> slots
(** An empty cache with room for [capacity] values and the staging
    slot. *)

val no_drop : int
(** The drop of a step that decides nothing: a hit, or a miss with
    room. *)

type cache = {
  cname : string;
  access :
    now:int -> cached:slots -> value:int -> hit:bool -> capacity:int -> int;
      (** Called once per reference, in time order.  [value] is the
          join-attribute value of the reference; on a miss the joining
          database tuple has been fetched and staged in slot [cached.n].
          The policy updates its per-slot state ([cached.scores], its
          own tables) for the referenced slot and returns the candidate
          to drop.  Only a full miss ([not hit], [cached.n = capacity])
          decides: it drops a slot in [0 .. n-1], whose value the
          fetched one replaces, or [n], the fetched value itself.
          Every other step returns {!no_drop} and keeps every
          candidate; the simulator admits a missed value with room.
          The simulator applies the drop, moving slot [n] (value,
          stamp and score) into the dropped slot. *)
}
(** A caching policy.  Because it names one drop instead of returning a
    set, a foreign value, a duplicate or an over-full cache cannot
    occur; the simulator checks only that the drop is in range. *)

type tie =
  | Newest_admitted
      (** Classic: the lowest score, ties to the most recently admitted
          slot; the fetched value goes in iff its score is at least that
          slot's.  Reproduces the newest-first list scan with a strict
          [<] exactly, NaN included: a NaN in the newest slot is the
          victim, and no other NaN is. *)
  | Smaller_value
      (** HEEB: the smallest score under [Float.compare] among all
          [n + 1] candidates, ties to the smaller value — the last
          candidate of a full best-first sort with ties to the larger
          value. *)

val drop_argmin : tie -> slots -> int
(** The one argmin of a full miss: [scores.(0 .. n)] hold the scores of
    the [n] cached slots and of the fetched value (slot [n]); the
    result is the candidate to drop, in [0 .. n].  Allocates
    nothing. *)
