(** Random walk with drift — Section 5.5.

    [X_t = drift + X_{t-1} + Y_t] with i.i.d. zero-mean integer steps [Y].
    Conditioned on the last observed value [x_{t0}], the value at horizon
    [Δt] is [x_{t0} + drift·Δt + (Δt-fold convolution of Y)]; we memoise
    the convolution prefix in a shared {!Ssj_prob.Convolve.Table}. *)

val window : int
(** Half-width of the caching kernel's truncation: 400 states either side
    of the running value. *)

val create :
  ?time:int -> start:int -> drift:int -> step:Ssj_prob.Pmf.t -> unit -> Predictor.t
(** [start] is the observed value at [time] (default time 0).  The
    predictor's kernel is {!Predictor.Relative}: the walk's one-step law
    over offsets [-window .. window] from the running value, so caching
    first-passage queries are truncated relative to wherever the walk
    has gone, not to its start. *)
