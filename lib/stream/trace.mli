(** Materialised runs of a pair of streams.

    A trace is the full realisation of both input streams for one
    experiment run: what OPT-offline sees in advance, and what the online
    simulator replays step by step. *)

type t = {
  r_values : int array;
  s_values : int array;  (** same length; index = time step *)
}

val length : t -> int

val generate :
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  rng:Ssj_prob.Rng.t ->
  length:int ->
  t
(** Sample both streams independently (each gets its own split of [rng]). *)

val tuple : t -> Tuple.side -> int -> Tuple.t
(** [tuple tr side t] is the tuple produced by [side] at time [t]. *)

val arrivals : t -> int -> Tuple.t * Tuple.t
(** Both arrivals at a time step, R first, built on demand: a trace is
    immutable, so any number of domains may replay it at once. *)

val of_values : r:int array -> s:int array -> t
(** Build a trace from explicit value scripts (lengths must match). *)
