(** Reproduction of every data figure in the paper's evaluation
    (Section 6) plus the worked examples of Sections 3.4 and 7 and the
    extension studies, as one table: {!figures}.  Each entry prints the
    underlying series as aligned tables; the `sjoin` CLI makes one
    subcommand per entry, and [sjoin all] runs them in table order.

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

type figure = {
  name : string;  (** the `sjoin` subcommand, e.g. ["fig8"] or ["band"] *)
  doc : string;  (** one line, the subcommand's help *)
  run : opts -> Format.formatter -> unit;
}

val figures : figure list
(** Every figure, example and extension, in [sjoin all]'s order:
    example-3-4, example-7, fig6 … fig19, window, band, multi,
    robustness, adversarial, ablation.  The conformance suite pins each
    entry's printed text at smoke scale by a digest. *)

val traces :
  (unit -> Ssj_model.Predictor.t * Ssj_model.Predictor.t) ->
  runs:int ->
  length:int ->
  seed:int ->
  Ssj_stream.Trace.t array
(** [traces predictors ~runs ~length ~seed]: [runs] independent
    realisations, run [i] drawn from fresh [predictors ()] with seed
    [seed + 1009 i] — the trace set of every synthetic figure. *)

type fig13_data = {
  fitted : Ssj_model.Ar1.params;  (** MLE fit of the binned reference *)
  reference : int array;  (** the 0.1 °C-binned temperature stream *)
  rows : (int * Ssj_engine.Runner.summary list) list;
      (** one row per memory size of [opts.real_sizes]; LFD first *)
}

val fig13_data : opts -> fig13_data
(** The Figure 13 computation without the printing — what the [fig13]
    entry renders, and what the conformance golden digests replay.
    Depends only on [opts.seed] and [opts.real_sizes]. *)

val example_scenario : unit -> Ssj_model.Predictor.t * Ssj_model.Predictor.t
(** The Section 3.4 scenario's stream models (exposed for tests). *)

val example_3_4_numbers : unit -> Ssj_core.Flow_expect.plan * float * float
(** The raw numbers behind the [example-3-4] entry: (FlowExpect's plan,
    optimal adaptive expected benefit, exhaustive predetermined-plan
    bound) — exposed for the test suite. *)

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
