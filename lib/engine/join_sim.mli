(** The joining-problem executor.

    Replays a trace step by step.  At each time [t] the two arrivals first
    join against the cache contents decided at [t − 1] (same-time R–S
    matches are excluded, as the paper's benefit accounting prescribes),
    then the policy picks the new cache contents from cached ∪ arrivals.
    The policy's buffer step writes them into one of two engine-owned
    buffers ping-ponged each step; every policy is built by
    {!Ssj_core.Policy.scored}, so the shared selection routine is the
    only code that writes that buffer, and the engine trusts it
    unchecked.  The list-scan reference {!Ssj_conform.Ref_sim} checks
    every selection instead.

    With a sliding window, only cached tuples still inside the window
    produce results. *)

type result = {
  total_results : int;  (** result tuples over the whole run *)
  counted_results : int;  (** result tuples at times ≥ warm-up *)
  share_samples : (int * float) list;
      (** (time, fraction of cache occupied by R tuples), sampled every
          [record_share] steps when requested — Figures 14/17/18 *)
}

val run :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  ?warmup:int ->
  ?window:Ssj_stream.Window.t ->
  ?band:int ->
  ?record_share:int ->
  unit ->
  result
(** [warmup] defaults to 0; [band] (default 0 = equijoin) switches to band
    semantics, matching tuples with [|v1 − v2| ≤ band].  Each step runs
    the policy's buffer step ([fast]), so the selection is the shared
    selection routine's and needs no check; a policy without one raises
    [Invalid_argument "Join_sim.run: policy <name> has no buffer
    step"]. *)

val run_logged :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  ?window:Ssj_stream.Window.t ->
  unit ->
  result * Ssj_stream.Tuple.t list array
(** Like [run] but also returns the decision log: the cache contents
    after each step, unchecked.  Tests recount the results from it with the naive
    counter {!Ssj_conform.Ref_sim.count_matches}. *)
