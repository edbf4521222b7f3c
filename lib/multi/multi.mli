(** Multiple binary join queries over multiple streams — the extension
    sketched at the end of the paper's Appendix C ("in the case of
    multiple binary joins, this expected benefit is a summary of each
    expected benefit of the binary join with one partner stream").

    [m] streams each emit one tuple per step; a workload is a set of
    binary equijoin queries between stream pairs, all sharing one cache
    of [capacity] tuples.  An arriving tuple joins the cached tuples of
    every stream it is queried against; the benefit of caching a tuple is
    therefore the *sum* of its per-partner expected benefits, which is
    exactly how {!heeb} scores candidates. *)

type tuple = {
  stream : int;
  value : int;
  arrival : int;
  uid : int;  (** unique across all streams of a run *)
}

type queries = (int * int) list
(** Unordered distinct stream pairs; [(i, j)] and [(j, i)] are the same
    query.  Validated by {!validate_queries}. *)

val validate_queries : streams:int -> queries -> (unit, string) result

val partners : queries -> int -> int list
(** Streams joined with the given stream (each listed once). *)

type policy = {
  name : string;
  select :
    now:int -> cached:tuple list -> arrivals:tuple list -> capacity:int -> tuple list;
}

val rand : rng:Ssj_prob.Rng.t -> policy

val prob : unit -> policy
(** History-frequency PROB generalised: a tuple's score sums its value's
    observed frequency over all partner streams. *)

val heeb :
  ?name:string ->
  predictors:Ssj_model.Predictor.t array ->
  l:Ssj_core.Lfun.t ->
  queries:queries ->
  unit ->
  policy
(** [H_x = Σ_{j partner of x.stream} Σ_Δt Pr{X^j = v_x}·L(Δt)].
    [predictors.(i)] models stream [i], positioned before the first
    arrival; the policy observes all arrivals itself. *)

type result = { total_results : int; counted_results : int }

val run :
  traces:int array array ->
  queries:queries ->
  policy:policy ->
  capacity:int ->
  ?warmup:int ->
  unit ->
  result
(** [traces.(i).(t)] is stream [i]'s value at time [t] (equal lengths).
    Each step: every arrival joins the cache decided at the previous step
    (once per query it participates in; same-step arrival pairs excluded,
    as in the two-stream engine), then the policy picks the new cache.
    Every selection is checked: within [capacity], drawn from the cache
    and the arrivals, no tuple twice; a violation raises [Failure]. *)
