(** Naive list-scan joining simulator — the differential oracle for
    {!Ssj_engine.Join_sim}.

    Replays a trace with the same semantics as the engine (arrivals
    join the cache decided at the previous step, same-time R–S matches
    excluded, window and band as given) but with none of its machinery:
    the cache is the policy's selection list, match counting is a plain
    fold per arrival, and every selection is checked with
    {!Ssj_core.Policy.validate_join_selection} (raising [Failure] on a
    violation).  Always calls the policy's list [select] — for a scored
    policy a list adapter over its step. *)

type result = { total_results : int; counted_results : int }

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
