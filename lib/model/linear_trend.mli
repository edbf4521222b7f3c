(** Trend-plus-noise streams — Sections 5.3 and 5.4.

    [X_t = f(t) + Y_t] with a deterministic trend [f] and i.i.d. zero-mean
    noise [Y].  TOWER / ROOF use bounded discretised normal noise, FLOOR
    bounded uniform noise; all three use the linear trend
    [f(t) = speed·t + offset]. *)

val linear :
  ?time:int -> speed:int -> offset:int -> noise:Ssj_prob.Pmf.t -> unit -> Predictor.t
(** [linear ~speed ~offset ~noise ()] is the stream with trend
    [f(t) = speed·t + offset]; [time] defaults to [-1]. *)
