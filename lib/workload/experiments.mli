(** Reproduction of every data figure in the paper's evaluation
    (Section 6) plus the worked examples of Sections 3.4 and 7 and two
    extension studies.  Each function prints the underlying series as an
    aligned table; the `sjoin` CLI drives these ([sjoin all] runs every
    one).

    Every per-run loop goes through {!Ssj_engine.Runner} (a
    [compare_*] or {!Ssj_engine.Runner.lineup} over the figure's
    inputs; OPT-offline's per-run capacity curve through
    {!Ssj_prob.Parallel.map}), so every table is identical for any
    [SSJ_JOBS].

    Scale knobs live in {!opts}: {!default} is the paper's 50 runs ×
    5000-tuple streams, and the CLI scales it down (`--runs`, `--len`).
    FlowExpect figures use the separate [fe_*] knobs because it solves a
    min-cost flow per time step. *)

type opts = {
  runs : int;  (** independent realisations per synthetic configuration *)
  length : int;  (** stream length (tuples per stream per run) *)
  seed : int;
  capacity : int;  (** cache size for the fixed-size comparisons (Fig 8) *)
  sweep : int list;  (** cache sizes for Figures 9–12 *)
  real_sizes : int list;  (** memory sizes for Figure 13 *)
  fe_runs : int;
  fe_length : int;
  fe_lookahead : int;  (** FlowExpect look-ahead for Figure 8 *)
  fe_sweep : int list;  (** look-ahead distances for Figure 19 *)
}

val default : opts

val traces :
  (unit -> Ssj_model.Predictor.t * Ssj_model.Predictor.t) ->
  runs:int ->
  length:int ->
  seed:int ->
  Ssj_stream.Trace.t array
(** [traces predictors ~runs ~length ~seed]: [runs] independent
    realisations, run [i] drawn from fresh [predictors ()] with seed
    [seed + 1009 i] — the trace set of every synthetic figure. *)

val fig6 : ?out:Format.formatter -> opts -> unit
(** Precomputed [h_R] curves for random-walk caching, drift 0 / 2 / 4. *)

val fig7 : ?out:Format.formatter -> unit -> unit
(** TOWER / ROOF / FLOOR noise pmfs. *)

val fig8 : ?out:Format.formatter -> opts -> unit
(** Join counts across TOWER/ROOF/FLOOR/WALK at a fixed cache size,
    including a reduced-scale FlowExpect block. *)

val fig9 : ?out:Format.formatter -> opts -> unit
(** TOWER cache-size sweep. *)

val fig10 : ?out:Format.formatter -> opts -> unit
(** ROOF cache-size sweep. *)

val fig11 : ?out:Format.formatter -> opts -> unit
(** FLOOR cache-size sweep. *)

val fig12 : ?out:Format.formatter -> opts -> unit
(** WALK cache-size sweep. *)

val fig13 : ?out:Format.formatter -> opts -> unit
(** REAL caching misses vs memory size: LFD, RAND, LRU, PROB(LFU), HEEB. *)

type fig13_data = {
  fitted : Ssj_model.Ar1.params;  (** MLE fit of the binned reference *)
  reference : int array;  (** the 0.1 °C-binned temperature stream *)
  rows : (int * Ssj_engine.Runner.summary list) list;
      (** one row per memory size of [opts.real_sizes]; LFD first *)
}

val fig13_data : opts -> fig13_data
(** The Figure 13 computation without the printing — what {!fig13}
    renders, and what the conformance golden digests replay.  Depends
    only on [opts.seed] and [opts.real_sizes]. *)

val fig14 : ?out:Format.formatter -> opts -> unit
(** Fraction of cache taken by R tuples under HEEB for the lag / variance
    variants of the TOWER-SYM configuration. *)

val fig15 : ?out:Format.formatter -> opts -> unit
(** Exact vs bicubic-approximated REAL [h2] surface (Figures 15 and 16):
    sample values and approximation-error summary. *)

val fig17 : ?out:Format.formatter -> opts -> unit
(** Cache share over time for variance ratios 1:1 / 1:2 / 1:4. *)

val fig18 : ?out:Format.formatter -> opts -> unit
(** Cache share over time for lags 1 / 2 / 4. *)

val fig19 : ?out:Format.formatter -> opts -> unit
(** FlowExpect look-ahead sweep vs RAND/PROB/LIFE (FLOOR-like, short). *)

val example_3_4 : ?out:Format.formatter -> unit -> unit
(** The Section 3.4 suboptimality scenario: FlowExpect's best
    predetermined plan (1.6) vs the optimal adaptive strategy (1.75). *)

val example_scenario : unit -> Ssj_model.Predictor.t * Ssj_model.Predictor.t
(** The Section 3.4 scenario's stream models (exposed for tests). *)

val example_3_4_numbers : unit -> Ssj_core.Flow_expect.plan * float * float
(** The raw numbers behind {!example_3_4}: (FlowExpect's plan, optimal
    adaptive expected benefit, exhaustive predetermined-plan bound) —
    exposed for the test suite. *)

val example_7 : ?out:Format.formatter -> unit -> unit
(** The Section 7 sliding-window example: PROB, LIFE and windowed-HEEB
    scores of x1/x2/x3. *)

val window_extension : ?out:Format.formatter -> opts -> unit
(** Extension: sliding-window join shootout on a stationary skewed
    workload — PROB vs LIFE vs windowed HEEB (discussed but not plotted
    in the paper). *)

val multi_extension : ?out:Format.formatter -> opts -> unit
(** Extension: two join queries over three streams (Appendix C's
    multi-query setting) with the summed-benefit HEEB. *)

val band_extension : ?out:Format.formatter -> opts -> unit
(** Extension: band-join semantics ([|v1 − v2| ≤ b]) on TOWER — the
    paper's future-work generalisation, with band-aware OPT and HEEB. *)

val adversarial : ?out:Format.formatter -> opts -> unit
(** Extension: empirical competitive-ratio estimates (worst observed
    OPT/policy ratio) — a measured stand-in for the competitive analysis
    Section 8 defers to future work. *)

val robustness : ?out:Format.formatter -> opts -> unit
(** Extension: HEEB under model misspecification (wrong noise scale,
    wrong lag, stale no-drift beliefs) on TOWER data, followed by the
    {!robustness_grid} degradation table — the "coping with changes in
    input characteristics" direction of Section 8. *)

type robustness_cell = {
  policy : string;
  mean : float;
  degradation : float;
      (** mean / clean mean of the same policy; 0 when the clean mean is
          not positive *)
}

type robustness_row = {
  fault : string;  (** {!Ssj_fault.Fault.describe} or a regime label *)
  cells : robustness_cell list;
}

type robustness_report = {
  grid_capacity : int;
  grid_runs : int;
  grid_length : int;
  clean : Ssj_engine.Runner.summary list;
      (** severity-zero row: the tracked bench sweep's traces, policies
          and warm-up, with the traces passed through {!Ssj_fault.Fault.apply}
          at every grid kind with rate 0, so at the sweep capacity it is
          bit-identical to the sweep summaries unless that plumbing
          changes a clean trace *)
  rows : robustness_row list;  (** fault kinds × 3 severities *)
  regime : robustness_row list;
      (** mid-run regime switches (policies keep the stale model) *)
}

val robustness_grid : ?capacity:int -> opts -> robustness_report
(** Fault × policy degradation grid on TOWER data: RAND / PROB / LIFE /
    HEEB under drop, duplicate, burst, stall and value noise at three
    severities each, plus three generator-level regime switches at
    [length/2].  [capacity] defaults to [opts.capacity]; the bench runs
    it at the tracked sweep's capacity and gates the [clean] row against
    the sweep bit-for-bit. *)

val print_robustness_grid : ?out:Format.formatter -> robustness_report -> unit

val ablation_lfun : ?out:Format.formatter -> opts -> unit
(** Extension: HEEB's sensitivity to the choice of [L] (α scaling,
    [L_fixed] horizons) on TOWER. *)

val all : ?out:Format.formatter -> opts -> unit
