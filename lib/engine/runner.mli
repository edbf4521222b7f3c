(** Multi-run experiment harness.

    The paper's synthetic experiments run 50 independent realisations of
    the same stochastic configuration and report mean join counts after a
    warm-up of at least four cache sizes (Section 6.2).  Every sweep is a
    {!lineup}: one {!Ssj_prob.Parallel.map} per labelled entry over the
    *same* inputs (paired runs keep the variance of comparisons low).
    {!compare_joining} and {!compare_caching} are lineups with the
    offline bound as one more labelled entry. *)

type summary = {
  label : string;
  mean : float;
  stddev : float;
  per_run : float array;
}

val summarize : label:string -> float array -> summary
(** Mean and population stddev of [per_run]; an empty array summarises
    to zeros (never NaN), keeping downstream JSON schemas stable. *)

type joining_setup = {
  capacity : int;
  warmup : int;  (** use [default_warmup] for the paper's 4·capacity rule *)
  window : Ssj_stream.Window.t option;
}

val default_warmup : capacity:int -> int

(** {2 Policy lineups} *)

val lineup :
  ?jobs:int -> 'a array -> (string * ('a -> float)) list -> summary list
(** [lineup ?jobs items entries] summarises, in entry order, one
    {!Ssj_prob.Parallel.map} of each entry's function over [items]:
    [per_run] is in input order, so results are identical for any job
    count ([jobs] defaults to {!Ssj_prob.Parallel.default_jobs}), and
    the first exception a run raises is re-raised.  {!compare_joining}
    and {!compare_caching} are lineups; so is any figure whose per-run
    value is not a plain join or miss count. *)

val compare_joining :
  setup:joining_setup ->
  traces:Ssj_stream.Trace.t array ->
  policies:(string * (unit -> Ssj_core.Policy.join)) list ->
  ?include_opt:bool ->
  ?jobs:int ->
  unit ->
  summary list
(** One {!lineup} entry per policy.  Each policy factory is invoked
    afresh per run (policies are stateful), so runs are independent.  With [include_opt] (default true) an
    "OPT-OFFLINE" summary computed by {!Ssj_core.Opt_offline} on the
    same traces comes first. *)

val compare_caching :
  capacity:int ->
  warmup:int ->
  references:int array array ->
  policies:(string * (unit -> Ssj_core.Policy.cache)) list ->
  ?include_lfd:bool ->
  ?jobs:int ->
  unit ->
  summary list
(** Caching analogue: the summaries report counted misses, as in
    Figure 13.  With [include_lfd] (default true) Belady's "LFD" comes
    first. *)
