(** Golden digests of the tracked figures.

    The fig8 capacity-25 sweep (the tracked BENCH_joining.json series)
    and the fig13 REAL caching series are recomputed from scratch and
    compared bit-for-bit — [Printf "%h"] — against recorded digests.
    Every entry of {!Ssj_workload.Experiments.figures} is pinned too, by
    the MD5 of its printed text at CI's smoke scale.  The digests answer
    "did any number move at all"; the oracle pairs in {!Oracles} then
    attribute the movement.  Regenerate the tables with
    [sjoin check --print-golden] after an intentional numeric change. *)

type digest = { key : string; hex : string }
(** [hex] is a [%h] float, or for a figure the MD5 of its text in hex. *)

(** {2 The tracked sweep}

    TOWER traces seeded [42 + 1009 i], capacity 25, default warm-up,
    the trend lineup at seed 42, no OPT; canonical scale
    [canonical_runs] x [canonical_length].  The bench times exactly
    this sweep. *)

val canonical_runs : int
val canonical_length : int
val sweep_capacity : int
val sweep_setup : Ssj_engine.Runner.joining_setup
val sweep_traces : runs:int -> length:int -> Ssj_stream.Trace.t array
val sweep_lineup : unit -> Ssj_workload.Factory.join_lineup

val fig8_digests : runs:int -> length:int -> unit -> digest list
(** Recompute the tracked sweep at the given scale and digest each
    policy's mean and stddev under the key
    ["fig8/cap25/<label>/<mean|stddev>"]. *)

val fig8_drift : Ssj_engine.Runner.summary list -> (digest * digest) option
(** The first (expected, recomputed) pair whose hex differs, for
    summaries of the tracked sweep at canonical scale; labels without a
    recorded digest are ignored. *)

val fig13_digests : unit -> digest list
(** Recompute the Figure 13 series via {!Ssj_workload.Experiments.fig13_data}
    at default options and digest each per-memory-size mean. *)

val figure_digests : unit -> digest list
(** Run every figure of the table at smoke scale (2 runs x 200 tuples,
    FlowExpect 1 x 60) into a buffer and digest its text under the key
    ["figures/<name>"]. *)

val expected_fig8 : digest list
val expected_fig13 : digest list
val expected_figures : digest list

val print_digests : Format.formatter -> digest list -> unit
(** Print digests as OCaml record literals, ready to paste into the
    expected tables. *)

val compare_digests :
  what:string -> expected:digest list -> digest list -> Check.outcome

val check_artifact : filename:string -> digest list -> Check.outcome
(** Cross-check the recomputed fig8 digests against the 4-decimal
    roundings stored in the tracked artifact (BENCH_joining.json's
    ["sweep"] block). *)

val checks : ?artifact:string -> unit -> Check.t list
(** [golden:fig8-cap25-sweep] (with the artifact cross-check when
    [artifact] names the tracked BENCH_joining.json),
    [golden:fig13-real-series], and one [golden:figures/<name>] per
    figure, in table order, which recomputes that figure's digest at
    [SSJ_JOBS=1] and at [SSJ_JOBS=2].  All are expensive — excluded from
    the quick test gate, run by [ssj-check --all] / the conformance
    alias. *)
