(** A stream's stochastic model, conditioned on its observed history.

    The paper models each stream as a discrete-time stochastic process
    [{X_t}] (Section 2).  Every algorithm in the framework interacts with
    the process only through conditional queries: "given everything seen
    up to the current time [t0], what is the distribution of the join
    attribute at time [t0 + Δt]?".  [Predictor.t] packages exactly that,
    as a persistent value: [observe] returns the advanced predictor, so a
    policy can keep an old predictor around (e.g. for value-incremental
    computation) without copying. *)

(** A Markov model's one-step transition kernel, as caching HEEB's
    first-passage DP reads it. *)
type chain =
  | Absolute of Markov.kernel
      (** states are values: the future depends on where the last value
          lies (AR(1), which reverts to its mean) *)
  | Relative of Markov.kernel
      (** states are offsets from the last value, and the kernel's window
          holds 0: a shift-invariant chain (a random walk), whose window
          moves with the running value *)

type t = {
  name : string;
  time : int;  (** current time [t0]; the next arrival occurs at [t0 + 1] *)
  last : int option;  (** most recent observed value, if any *)
  pmf : int -> Ssj_prob.Pmf.t;
      (** [pmf delta] is the conditional law of [X_{t0+delta}], [delta ≥ 1] *)
  observe : int -> t;
      (** [observe v] advances time by one step with observed value [v] *)
  kernel : chain option;
      (** one-step transition kernel for Markov models (random walk, AR(1)),
          whose future depends on the last value; [None] for the models
          independent across time (offline, stationary, linear trend).
          Caching HEEB takes the first-passage DP exactly when it is
          present, and the independent first-reference sum otherwise *)
}

val prob : t -> delta:int -> int -> float
(** [prob p ~delta v] = Pr{X_{t0+delta} = v | history}. *)

val generate : t -> Ssj_prob.Rng.t -> int -> int array * t
(** [generate p rng n] samples an [n]-step path, observing each draw, and
    returns the path together with the advanced predictor. *)

val advance : t -> int array -> t
(** Observe a whole array of values in order. *)

val make :
  name:string ->
  ?kernel:chain ->
  ?last:int ->
  time:int ->
  pmf:(time:int -> last:int option -> int -> Ssj_prob.Pmf.t) ->
  unit ->
  t
(** Generic constructor: [pmf ~time ~last delta] must give the conditional
    law of the value at [time + delta].  [observe] is derived (it only
    updates [time] and [last]), which fits every model in this library. *)
