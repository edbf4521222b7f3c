(** Stream fault injection: composable, seeded perturbations of traces.

    The paper's Section 8 asks how the policies cope with changes in the
    input characteristics; the incomplete-data-stream and semi-stream
    join literature studies the same question for dirty real-world
    feeds — tuples dropped, delivered twice, arriving in bursts, links
    falling silent, values corrupted in flight.  This module turns a
    clean {!Ssj_stream.Trace.t} into such a dirty one, deterministically
    from an explicit seed, so the experiment runner can measure each
    policy's degradation without changing the engine.

    Every combinator preserves the trace's paired one-R-one-S-per-step
    structure (that is what the simulator replays): a transformed side
    is re-fitted to the original length, truncating overflow and padding
    shortfall with {e silence sentinels} — distinct values far outside
    any workload's value range, which join nothing and model "no
    arrival" exactly as the Section 3.4 worked example's "−" tuples do.

    Zero-severity identity: a kind with [rate = 0.0] (or an empty spec)
    emits every input value unchanged, so the perturbed trace is
    value-identical to its input and any simulation over it is
    bit-identical to the unperturbed run.  The test suite proves this by
    QCheck over random kind lists, for each policy run both as its
    scored step and as a plan through {!Ssj_core.Policy.fast_of_select}
    on the one engine loop. *)

type kind =
  | Drop of { rate : float }
      (** each arrival is lost with probability [rate]; the stream
          closes the gap (later tuples arrive earlier), silence pads the
          tail *)
  | Duplicate of { rate : float }
      (** each arrival is delivered twice with probability [rate];
          displaced tuples beyond the trace length are cut *)
  | Burst of { rate : float; len : int }
      (** with probability [rate] an arrival floods: it is re-delivered
          for the next [len − 1] steps, consuming the tuples it
          displaces — a hot-key burst, length-preserving *)
  | Stall of { rate : float; len : int }
      (** with probability [rate] the stream falls silent for [len]
          steps (silence sentinels); queued tuples resume afterwards,
          shifted later, tail cut *)
  | Noise of { rate : float; amp : int }
      (** each value is perturbed by uniform [±amp] with probability
          [rate] — value corruption, length-preserving *)

type spec = { kinds : kind list; seed : int }
(** Kinds apply in list order; each stage draws from its own generator
    (split in list order from a per-side root derived from [seed]), so
    one stage's fire pattern never interleaves draws with another's. *)

val identity : spec
(** The empty spec (no kinds, seed 0). *)

val is_identity : spec -> bool
(** True when every kind provably cannot fire: empty kind list, or all
    rates ≤ 0 (and burst/stall lengths ≤ 0 count as inert too). *)

val apply : spec -> Ssj_stream.Trace.t -> Ssj_stream.Trace.t
(** Perturb both sides of a trace.  The result has the same length as
    the input; with {!is_identity} specs it is value-identical to it.
    Deterministic in ([spec], input values).  Obs counters
    [fault.injected_*] record every fired perturbation when the
    [SSJ_OBS] gate is on. *)

val apply_side : spec -> side:Ssj_stream.Tuple.side -> int array -> int array
(** Perturb one value sequence (exposed for tests); [side] selects the
    sentinel range and the per-side generator split. *)

val is_silence : int -> bool
(** True for the silence sentinels this module injects.  Sentinels live
    far below −10⁴, well clear of workload values (which track the trend
    within a noise bound); the magnitude is kept small enough that the
    dense history tables of the baseline policies — whose memory is
    O(value range) — stay compact when they observe a sentinel. *)

val splice : at:int -> before:Ssj_stream.Trace.t -> after:Ssj_stream.Trace.t
  -> Ssj_stream.Trace.t
(** Mid-run regime switch: values come from [before] for [t < at] and
    from [after] for [t ≥ at].  Both traces must have equal length.
    Policies evaluated on the spliced trace keep whatever (now stale)
    model they were built with — exactly the Section 8 scenario. *)

val generate_switched :
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  r_after:Ssj_model.Predictor.t ->
  s_after:Ssj_model.Predictor.t ->
  at:int ->
  rng:Ssj_prob.Rng.t ->
  length:int ->
  Ssj_stream.Trace.t
(** Generator-level regime switch: sample the prefix from [(r, s)] and
    the suffix from [(r_after, s_after)] (each pair with its own rng
    split), then {!splice} at [at]. *)

val kind_label : kind -> string
(** Short name: ["drop"], ["duplicate"], ["burst"], ["stall"],
    ["noise"]. *)

val describe : kind -> string
(** Human-readable kind with its parameters, e.g. ["drop(rate=0.05)"]. *)

val spec_label : spec -> string
(** All kinds of a spec, ["clean"] for the empty one. *)
