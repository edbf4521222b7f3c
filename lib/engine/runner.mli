(** Multi-run experiment harness.

    The paper's synthetic experiments run 50 independent realisations of
    the same stochastic configuration and report mean join counts after a
    warm-up of at least four cache sizes (Section 6.2).  Every sweep goes
    through one per-run loop, {!run_supervised}; {!compare_joining} and
    {!compare_caching} are policy lineups over it that evaluate every
    policy on the *same* inputs (paired runs keep the variance of
    comparisons low), with the offline bound as one more labelled
    entry. *)

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

(** {2 The per-run loop}

    A sweep of hundreds of runs should not lose everything to one bad
    run.  Under a {!supervision}, each run is evaluated by a supervisor
    that catches exceptions, retries with the same inputs a bounded
    number of times, records the survivor in a structured failure
    manifest, and summarises over the runs that completed.  With a
    {!Checkpoint.t} attached, completed runs are persisted and a
    restarted sweep resumes bit-identically, skipping them. *)

type failure = {
  policy : string;  (** sweep label the run belonged to *)
  run : int;  (** index into the input array *)
  attempts : int;  (** attempts made, including retries *)
  error : string;  (** rendered exception *)
  backtrace : string;
}

type supervision = {
  retries : int;  (** extra same-input attempts after a failure *)
  checkpoint : Checkpoint.t option;
}

val supervision_from_env : unit -> supervision
(** Reads [SSJ_RETRIES] (an integer [>= 0], default 1; anything else
    raises [Invalid_argument] naming the variable) and [SSJ_CHECKPOINT]
    (see {!Checkpoint.from_env}). *)

type supervised = {
  summary : summary;  (** over completed runs only; zeros when none *)
  failures : failure list;  (** in run order; empty on a clean sweep *)
  salvaged : int;  (** completed runs — [salvaged + length failures] is
                       the input size *)
  checkpoint_hits : int;  (** runs answered from the checkpoint *)
}

val run_supervised :
  label:string ->
  ?supervision:supervision ->
  ?ckpt_context:string ->
  ?jobs:int ->
  (int -> 'a -> float) ->
  'a array ->
  supervised
(** Evaluate [f run_index item] for every item, in parallel over up to
    [jobs] domains ([jobs] defaults to {!Ssj_prob.Parallel.default_jobs});
    [per_run] keeps the completed runs in input order, so results are
    identical for any job count.

    Without [supervision] this is {!Ssj_prob.Parallel.map}: no retry, no
    checkpoint, and the first exception is re-raised.

    With [supervision], a raising run is retried up to
    [supervision.retries] times with the same index and item; if every
    attempt fails, a {!failure} is recorded and the sweep continues.
    Checkpoint keys are ["<ckpt_context>|<label>|<run_index>"]
    ([ckpt_context] defaults to [""]); a key already present skips the
    run entirely and substitutes the recorded value bit-identically.
    A per-run step budget is [f]'s business: pass [?step_budget] to
    {!Join_sim.run} inside it. *)

(** {2 Policy lineups} *)

val lineup :
  ?jobs:int -> 'a array -> (string * ('a -> float)) list -> summary list
(** One unsupervised {!run_supervised} sweep per labelled entry, over
    the same inputs, in entry order.  {!compare_joining} and
    {!compare_caching} are lineups; so is any figure whose per-run value
    is not a plain join or miss count. *)

val compare_joining :
  setup:joining_setup ->
  traces:Ssj_stream.Trace.t array ->
  policies:(string * (unit -> Ssj_core.Policy.join)) list ->
  ?include_opt:bool ->
  ?jobs:int ->
  unit ->
  summary list
(** One unsupervised {!run_supervised} sweep per policy.  Each policy
    factory is invoked afresh per run (policies are stateful), so runs
    are independent.  With [include_opt] (default true) an
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

val share_trace :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  every:int ->
  (int * float) list
(** Fraction of the cache occupied by R tuples over time (Figures 14,
    17, 18). *)
