(** Offline (fully known) streams — Section 5.1.

    A known sequence [{a_0, a_1, …}] viewed as the degenerate process with
    [Pr{X_t = a_t} = 1].  This is the scenario where the framework's
    dominance tests recover LFD for caching, and where FlowExpect
    degenerates into OPT-offline. *)

val create : ?time:int -> ?strict:bool -> int array -> Predictor.t
(** [create ~time values] starts with current time [time] (default [-1],
    i.e. the first arrival is [values.(0)]).  Queries beyond the end of
    the script return a point mass at {!never_value} (the stream "goes
    quiet"), so horizon-truncated sums just see zero match probability;
    pass [~strict:true] to raise [Invalid_argument] instead. *)

val never_value : int
(** Sentinel join-attribute value emitted past the end of a non-strict
    script; guaranteed to match no realistic attribute value. *)
