(** The differential oracle registry: every optimised path in the
    engine paired with an independent reference implementation.

    - [oracle:join-sim/indexed-vs-listscan] — the engine's default run
      (buffer step + incremental {!Ssj_engine.Join_index}) vs the naive
      list-scan simulator {!Ref_sim}; shrinkable.
    - [oracle:join-sim/validated-vs-listscan] — the same run with
      per-step validation on vs the same reference; shrinkable.
    - [oracle:keep-top/bounded-vs-sort] — the one selection routine
      behind {!Ssj_core.Policy.scored} and its recorded diff vs
      {!Ref_sim.keep_top_spec}, on random candidate sets (small and large
      candidate-to-capacity ratios, tie-heavy and dead scores) and on
      {!engine_step}s of up to 402 candidates: engine-ordered (the
      insertion path) and shuffled over every {!palette} (the bucket
      pass; [Wide] steps keep every candidate, so the full order is
      compared).  Past 64 candidates, the [policy.sort_*] counters must
      show distinct scores that took the bucket pass finishing in at
      most 2n moves.  Every fourth case scores one to three candidates
      of an engine step NaN: the step must raise [Invalid_argument]
      naming the policy, the step and one of their uids.
    - [oracle:cache/argmin-vs-sort] — the caching selection of
      {!Ssj_core.Heeb.caching_fn} (tie-heavy scorer),
      {!Ssj_core.Heeb.caching} on a stationary and on a random-walk
      reference (the Markov first-passage H), and
      LRU/LFU/LFD from {!Ssj_core.Classic}, replayed in lock step
      against {!Ref_sim.keep_best_spec} (HEEB) or the two-call
      scored fold (Classic) at capacities 0, 1, 2, 7 and 25: equal
      hit/miss sequences and kept sets at every step.
    - [oracle:cache-sim/slots-vs-list] — {!Ssj_engine.Cache_sim}'s
      stable slots vs the list loop {!Ref_sim.cache_replay}, for every
      caching policy against its list spec: stationary references with
      hostile values at capacities 0–25, a capacity at least the domain,
      and evicted values re-referenced at once; equal hit flags and
      kept sets at every step.
    - [oracle:flow-expect/warm-vs-fresh] — warm-started
      {!Ssj_core.Flow_expect.decide} vs fresh per-step solves
      (bit-equal kept sets and plan values).
    - [oracle:h1/curve-vs-direct-sum] — the precomputed random-walk
      joining curve vs {!Ssj_core.Precompute.walk_joining_h}.
    - [oracle:h1/kernel-vs-table] — the same curve's bits vs a build
      from {!Ssj_prob.Convolve.pair} levels (the construction of
      {!Ssj_prob.Convolve.Table}), zero-trimmed, with
      {!Ssj_prob.Pmf.add_into}: random steps, alpha in \[2, 150\],
      drift in \[-2, 2\], windows within ±300; one case per 20 of
      [count].
    - [oracle:h2/bicubic-vs-exact-columns] — bicubic surface control
      nodes vs exact first-passage columns.
    - [oracle:online-le-opt-offline] — every online policy's total
      bounded by {!Ssj_core.Opt_offline.max_results}; shrinkable.
    - [oracle:opt/curve-vs-single-solves] — the single-solve capacity
      curve vs per-capacity solves.
    - [oracle:flow-expect-le-expectimax] — the Section 3.4 ordering
      (FlowExpect ≤ predetermined bound ≤ adaptive optimum).
    - [oracle:mcmf/ssp-vs-cycle-cancel] — the production min-cost-flow
      solver vs the independent cycle-cancelling oracle on seeded
      random DAGs. *)

val gen_case : ?allow_window:bool -> seed:int -> int -> Case.t
(** Case number [i] of stream [seed]: short trace over a narrow value
    domain, small cache, random policy/band/window; one case in four
    puts part of its values within 4 of [min_int] or [max_int].
    [allow_window:false] restricts to regular semantics (e.g. for OPT,
    which has no window variant).  Shared with the metamorphic laws and
    the test suite. *)

type palette =
  | Table  (** five tie-heavy values, −∞ among them *)
  | Spread  (** distinct uniform scores, as RAND draws them *)
  | Few  (** two or three distinct scores *)
  | Equal  (** one score for every live candidate *)
  | Wide
      (** ordinary scores among ±1e308 or +∞: a live range that is not
          finite *)
(** Where a shuffled step's live scores come from. *)

type step_shape =
  | Engine_order
      (** the cache in best-first order of last step's scores, a few
          entries rescored or killed (−∞), scores from [Table] *)
  | Shuffled of palette
      (** the cache in random order, every live score redrawn (RAND);
          outside [Table], the cache ends in a block of up to half its
          entries killed, newest first *)

val palettes : palette list

val engine_step :
  shape:step_shape ->
  n:int ->
  Ssj_prob.Rng.t ->
  (Ssj_stream.Tuple.t -> float) * Ssj_stream.Tuple.t list
(** [engine_step ~shape ~n rng] is a selection step of [n >= 2]
    candidates shaped like the engine's: the cache, then the R and S
    arrivals last, with tie-heavy scores.  Returns the score function
    and the candidates. *)

val h1_reference :
  step:Ssj_prob.Pmf.t ->
  drift:int ->
  l:Ssj_core.Lfun.t ->
  lo:int ->
  hi:int ->
  float array
(** The h1 curve's samples on [lo..hi] as [oracle:h1/kernel-vs-table]
    builds its reference: each level the {!Ssj_prob.Convolve.pair} of
    the last one and the step, zero-trimmed, accumulated with
    {!Ssj_prob.Pmf.add_into}. *)

val all : Check.t list
