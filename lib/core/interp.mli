(** Precomputed HEEB functions as compact run-time tables — Section
    4.4.3 / 6.5.

    Theorem 5 makes [H_x] a time-independent function: a curve [h1] for
    random walks and a surface [h2] for AR(1).  The paper stores "a
    compact, approximate representation online"; for REAL it uses bicubic
    interpolation of 25 control points.  [h1] is a function of the
    integer offset [v_x − x_{t0}], so a curve is a table of its samples
    on consecutive integers, clamped at both ends; a surface is read by
    Catmull–Rom bicubic interpolation (the classic convolution kernel
    with a = −1/2, C¹-continuous) on a regular grid. *)

module Curve : sig
  type t
  (** A function sampled on the integers [lo .. lo + n − 1]. *)

  val create : lo:int -> float array -> t
  (** [create ~lo ys] holds [ys.(i)] at [lo + i] and takes ownership of
      [ys] (no copy).  Raises [Invalid_argument] on fewer than 2 samples
      or a grid that would pass [max_int]. *)

  val eval : t -> int -> float
  (** The sample at [d], clamped to the end samples outside the grid;
      total over [int], [min_int] and [max_int] included. *)

  val lo : t -> int
  (** The first grid point. *)

  val samples : t -> float array
  (** The samples themselves, no copy; the caller must not mutate them. *)
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

  type scorer
  (** Many [x] scored against one integer [y] at a time, as HEEB(h2)
      scores a full miss's candidates against the last reference: one
      slice, re-contracted in place at each [y], and per index the
      x-basis (cell and four Catmull–Rom weights, which depend on [x]
      alone) of the last [x] scored at that index. *)

  val scorer : t -> scorer

  val score_at : scorer -> y:int -> n:int -> int array -> float array -> unit
  (** [score_at sc ~y ~n xs out] sets [out.(i)] to
      [eval_slice (y_slice s (float_of_int y)) (float_of_int xs.(i))]
      for [i < n], bit for bit.  The x-basis at index [i] is derived
      again only when [xs.(i)] differs from the last call's, so a cache
      whose slots mostly keep their values costs four products per
      slot.  Allocates nothing once it has seen its largest [n]. *)

  val nx : t -> int
  val ny : t -> int
end
