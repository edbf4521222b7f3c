(** The conformance driver behind [ssj-check] (the [sjoin check]
    subcommand and the [@conformance] dune alias).

    Assembles the registry — differential {!Oracles}, metamorphic
    {!Laws}, and (optionally) the {!Golden} figure digests — runs it,
    shrinks any replayable failure with {!Shrink.minimize}, and writes a
    minimized repro JSON per failing check. *)

type report = {
  check : Check.t;
  outcome : Check.outcome;
  shrunk : (Case.t * Shrink.stats) option;
      (** minimized case + shrinker stats, for replayable failures *)
  repro_file : (string, string) result option;
      (** where the repro JSON was written, or why it could not be *)
  seconds : float;  (** wall time of the check itself *)
}

val all_checks : ?artifact:string -> ?golden:bool -> unit -> Check.t list
(** Every registered check: oracle pairs, then laws, then (unless
    [golden:false]) the golden digests.  [artifact] names the tracked
    BENCH_joining.json for the fig8 rounding cross-check. *)

val run_checks :
  ?filter:string ->
  ?seed:int ->
  ?count:int ->
  ?repro_dir:string ->
  ?out:Format.formatter ->
  Check.t list ->
  report list
(** Run the checks whose name contains [filter] (default: all), each
    over [count] generated cases (default 100) from [seed] (default
    42), printing one line per check.  A failing check with a replay
    hook is shrunk within {!Shrink.default_budget};
    when [repro_dir] (an existing directory) is given the minimized case
    is saved there as [repro-<name>.json]. *)

val ok : report list -> bool
(** Non-empty and all passing. *)

val replay :
  ?out:Format.formatter ->
  filename:string ->
  unit ->
  ([ `Still_fails | `Fixed ], string) result
(** Load a repro JSON and re-evaluate it against its recorded check.
    [Error] on unreadable/incompatible files or non-replayable checks. *)
