(** Replayable conformance cases.

    A case packs everything a differential check needs to re-run one
    simulator comparison deterministically: both value scripts, the
    cache size, the join semantics (band width, optional sliding
    window), and the policy as a (name, seed) recipe — policies are
    stateful, so {!policy} builds a fresh instance each call.  The
    shrinker ({!Ssj_conform.Shrink}) transforms cases; {!save} /
    {!load} move them through the repro JSON files that `sjoin check`
    writes and replays. *)

type t = {
  r_values : int array;
  s_values : int array;  (** same length; index = time step *)
  capacity : int;
  band : int;  (** 0 = equijoin *)
  window : int option;  (** sliding-window width, [None] = unbounded *)
  policy : string;  (** one of {!policy_names} *)
  seed : int;  (** RAND's RNG seed; inert for the deterministic policies *)
}

val length : t -> int
val trace : t -> Ssj_stream.Trace.t
val window : t -> Ssj_stream.Window.t option

val warmup : t -> int
(** The paper's 4·capacity warm-up, capped at half the trace so shrunk
    cases keep a non-trivial counted tally. *)

val policy_names : string list
(** ["RAND"; "PROB"; "LIFE"; "HEEB"] — the registry {!policy} accepts.
    LIFE is window-aware when the case has a window ([Of_window]) and
    uses the TOWER trend lifetime otherwise; HEEB runs in [`Direct]
    mode over the TOWER predictors. *)

val policy : t -> Ssj_core.Policy.join
(** Fresh policy instance for the case's recipe.  Raises
    [Invalid_argument] on a name outside {!policy_names}. *)

val to_string : t -> string

(** {2 Repro files}

    One JSON object per file, written and read through
    {!Ssj_obs.Json}; every string field round-trips exactly. *)

val save :
  check:string -> detail:string -> t -> filename:string -> (unit, string) result
(** [Error] carries the system's message when the file cannot be
    created or written. *)

type repro = { case : t; check : string; detail : string }

val load : filename:string -> (repro, string) result
(** Rejects files without an [ssj_repro_schema] field, files declaring
    a newer schema, and length-mismatched value arrays. *)
