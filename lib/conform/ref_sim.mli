(** Naive list-scan joining simulator — the differential oracle for
    {!Ssj_engine.Join_sim}.

    Replays a trace with the same semantics as the engine (arrivals
    join the cache decided at the previous step, same-time R–S matches
    excluded, window and band as given) but with none of its machinery:
    the cache is the policy's selection list, match counting is a plain
    fold per arrival, and every selection is checked with
    {!validate_join_selection} (raising [Failure] on a violation).
    Always calls the policy's list [select] — for a scored policy a list
    adapter over its step.  {!plan} is the reference's policy shape: a
    function returning the new cache contents, runnable on the engine
    too. *)

type result = { total_results : int; counted_results : int }

val count_matches :
  window:Ssj_stream.Window.t option ->
  band:int ->
  now:int ->
  Ssj_stream.Tuple.t list ->
  Ssj_stream.Tuple.t ->
  int
(** [count_matches ~window ~band ~now cache arrival]: the cached
    partner-side tuples, inside [window] at [now] when one is given,
    whose value is within [band] of [arrival]'s — a plain scan of the
    list.  The reference the engine's incremental {!Ssj_engine.Join_index}
    is tested against. *)

val validate_join_selection :
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  capacity:int ->
  Ssj_stream.Tuple.t list ->
  (unit, string) Stdlib.result
(** A list selection is within capacity, holds no duplicate, and only
    cached or arriving tuples. *)

val plan :
  name:string ->
  (now:int ->
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  capacity:int ->
  Ssj_stream.Tuple.t list) ->
  Ssj_core.Policy.join
(** A plan-based policy (scripted tests, the reduced policy of
    Theorem 1): [select] returns the new cache contents directly.  Its
    buffer step writes the plan in the order returned, with the diff
    against the cache: the cached positions whose uid the plan dropped,
    and whether each arrival entered.  The step checks nothing — run it
    through {!run} to check every selection. *)

val run :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  ?warmup:int ->
  ?window:Ssj_stream.Window.t ->
  ?band:int ->
  unit ->
  result

val run_case : Case.t -> result
(** {!run} with the case's trace, fresh policy, warm-up, window and
    band. *)

val opt_exhaustive :
  ?band:int -> trace:Ssj_stream.Trace.t -> capacity:int -> unit -> int
(** The most join results any replacement sequence earns on [trace]:
    every selection of [min capacity candidates] tuples at every step,
    memoised on (step, cache), matches counted by {!count_matches}.
    Exponential in the cache; the exact reference for
    {!Ssj_core.Opt_offline.max_results} on traces of a few steps. *)

val keep_top_spec :
  capacity:int ->
  score:(Ssj_stream.Tuple.t -> float) ->
  Ssj_stream.Tuple.t list ->
  Ssj_stream.Tuple.t list
(** Reference selection: the [capacity] highest-scored candidates,
    best-first, by full stable sort; score ties go to the newer tuple
    (higher uid).  [score] is called once per candidate, in list order.
    The oracle for the engine's one selection routine
    ({!Ssj_core.Policy.scored}), which must agree exactly whenever the
    uids are distinct. *)

type cache_spec = {
  spec_name : string;
  keep :
    now:int -> cached:int list -> value:int -> hit:bool -> capacity:int -> int list;
}
(** A caching policy in the list shape {!Ssj_engine.Cache_sim} used
    before stable slots: [keep] returns the new cache contents, a subset
    of [cached ∪ {value}] of size ≤ [capacity].  The reference
    implementations of {!Ssj_core.Classic} and {!Ssj_core.Heeb}'s
    caching policies are written in this shape. *)

val cache_replay :
  reference:int array ->
  ?nows:int array ->
  capacity:int ->
  cache_spec ->
  (bool * int list) array
(** The reference replay: from an empty cache, the access at index [t]
    happening at time [nows.(t)] (default [t]), a hit being a scan of the
    spec's list.  Returns each step's hit flag and kept list; a
    selection over capacity, with a duplicate or with a value neither
    cached nor fetched raises [Failure] naming the spec and the step.  The oracle for
    {!Ssj_engine.Cache_sim}'s slots. *)

val keep_best_spec :
  capacity:int ->
  score:(int -> float) ->
  cached:int list ->
  value:int ->
  hit:bool ->
  int list
(** Reference caching selection: score every candidate (the fetched
    [value] first on a miss, then [cached]) once, in that order, sort
    best-first with score ties to the larger value, and keep the
    [capacity]-prefix.  The oracle for the argmin selection of
    {!Ssj_core.Heeb.caching} and {!Ssj_core.Heeb.caching_fn}, which must
    keep the same set. *)
