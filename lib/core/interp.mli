(** Interpolation of precomputed HEEB functions — Section 4.4.3 / 6.5.

    Theorem 5 makes [H_x] a time-independent function: a curve [h1] for
    random walks and a surface [h2] for AR(1).  The paper stores "a
    compact, approximate representation online"; for REAL it uses bicubic
    interpolation of 25 control points.  We provide 1-D linear
    interpolation for curves and Catmull–Rom bicubic (the classic
    convolution kernel with a = −1/2, C¹-continuous) for surfaces on
    regular grids. *)

module Curve : sig
  type t
  (** A function sampled on the regular grid [x0 + i·dx], [i = 0..n−1]. *)

  val create : x0:float -> dx:float -> float array -> t
  val eval : t -> float -> float
  (** Piecewise-linear; clamps outside the grid. *)

  val x0 : t -> float
  val dx : t -> float
  val samples : t -> float array

  val save : t -> filename:string -> unit
  (** Text serialisation (loss-free via hex floats) — lets an expensive
      precomputation (e.g. a Figure-6 DP) be archived and reloaded. *)

  val load : filename:string -> t
  (** Raises [Failure] on malformed input. *)
end

module Surface : sig
  type t
  (** A function sampled on the regular grid
      [(x0 + i·dx, y0 + j·dy)], [i = 0..nx−1], [j = 0..ny−1]. *)

  val create : x0:float -> dx:float -> y0:float -> dy:float -> float array array -> t
  (** [values.(i).(j)] is the sample at [(x0 + i·dx, y0 + j·dy)]; needs at
      least a 2×2 grid and rectangular rows. *)

  val eval : t -> float -> float -> float
  (** [eval s x y], bicubic inside the grid, clamped to the boundary
      outside it. *)

  type slice
  (** The surface contracted along y at one fixed [y]: one Catmull–Rom
      row per x node. *)

  val y_slice : t -> float -> slice
  (** [y_slice s y] contracts every row at [y] once, so that scoring many
      [x] against one [y] (HEEB(h2)'s candidates against one reference)
      costs a 1-D cubic each. *)

  val eval_slice : slice -> float -> float
  (** [eval_slice (y_slice s y) x] is bit-equal to [eval s x y]: both
      run the same row contraction and the same x combination. *)

  val nx : t -> int
  val ny : t -> int

  val save : t -> filename:string -> unit
  (** Text serialisation (loss-free via hex floats) — archives an [h2]
      surface so the REAL policy can start without redoing the DPs. *)

  val load : filename:string -> t
end
