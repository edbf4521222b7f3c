module Curve = struct
  type t = { lo : int; hi : int; ys : float array }

  let create ~lo ys =
    let n = Array.length ys in
    if n < 2 then invalid_arg "Interp.Curve.create: need >= 2 samples";
    if lo > max_int - (n - 1) then
      invalid_arg "Interp.Curve.create: grid passes max_int";
    { lo; hi = lo + (n - 1); ys }

  (* [d] is compared with both ends before [lo] is subtracted, so offsets
     near [min_int]/[max_int] read the end samples instead of wrapping. *)
  let eval t d =
    if d <= t.lo then t.ys.(0)
    else if d >= t.hi then t.ys.(t.hi - t.lo)
    else t.ys.(d - t.lo)

  let lo t = t.lo
  let samples t = t.ys
end

module Surface = struct
  type t = {
    x0 : float;
    dx : float;
    y0 : float;
    dy : float;
    values : float array array; (* values.(i).(j) at (x0 + i dx, y0 + j dy) *)
  }

  let create ~x0 ~dx ~y0 ~dy values =
    let nx = Array.length values in
    if nx < 2 then invalid_arg "Interp.Surface.create: need >= 2 rows";
    let ny = Array.length values.(0) in
    if ny < 2 then invalid_arg "Interp.Surface.create: need >= 2 columns";
    Array.iter
      (fun row ->
        if Array.length row <> ny then
          invalid_arg "Interp.Surface.create: ragged rows")
      values;
    if dx <= 0.0 || dy <= 0.0 then invalid_arg "Interp.Surface.create: bad step";
    { x0; dx; y0; dy; values }

  let nx t = Array.length t.values
  let ny t = Array.length t.values.(0)

  (* [max lo (min hi v)], specialised so no comparison is polymorphic. *)
  let[@inline] clampf lo hi (v : float) =
    let m = if hi <= v then hi else v in
    if lo >= m then lo else m

  let[@inline] clampi lo hi (v : int) =
    let m = if hi <= v then hi else v in
    if lo >= m then lo else m

  (* Position of [v] on an axis of [n] nodes starting at [origin], in node
     units, clamped to the grid. *)
  let[@inline] position ~origin ~step n v =
    clampf 0.0 (float_of_int (n - 1)) ((v -. origin) /. step)

  (* The cell [i <= n - 2] holding position [p].  Every [p] here comes
     from [position], clamped to [0, n - 1], where truncation is the
     floor: no libm call per evaluation. *)
  let[@inline] cell n p =
    let i = int_of_float p in
    if n - 2 <= i then n - 2 else i

  (* Catmull–Rom combination of four neighbouring samples at fractional
     offset [u] in [0,1): the classic bicubic convolution kernel
     (a = -1/2), which interpolates the samples and is C¹. *)
  let[@inline] w0 u u2 u3 = 0.5 *. (-.u3 +. (2.0 *. u2) -. u)
  let[@inline] w1 u2 u3 = 0.5 *. ((3.0 *. u3) -. (5.0 *. u2) +. 2.0)
  let[@inline] w2 u u2 u3 = 0.5 *. ((-3.0 *. u3) +. (4.0 *. u2) +. u)
  let[@inline] w3 u2 u3 = 0.5 *. (u3 -. u2)

  let[@inline] cubic u s0 s1 s2 s3 =
    let u2 = u *. u in
    let u3 = u2 *. u in
    (w0 u u2 u3 *. s0) +. (w1 u2 u3 *. s1) +. (w2 u u2 u3 *. s2)
    +. (w3 u2 u3 *. s3)

  (* Row [i] contracted along y in cell [iy] at offset [uy]; samples past
     the grid (the outer ring of the 4x4 patch) clamp to its edge. *)
  let[@inline] sample (r : float array) ny j = r.(clampi 0 (ny - 1) j)

  let[@inline] row t ~iy ~uy i =
    let ny = ny t in
    let r = t.values.(clampi 0 (nx t - 1) i) in
    cubic uy (sample r ny (iy - 1)) (sample r ny iy) (sample r ny (iy + 1))
      (sample r ny (iy + 2))

  let eval t x y =
    let nx = nx t and ny = ny t in
    let px = position ~origin:t.x0 ~step:t.dx nx x in
    let py = position ~origin:t.y0 ~step:t.dy ny y in
    let ix = cell nx px and iy = cell ny py in
    let ux = px -. float_of_int ix and uy = py -. float_of_int iy in
    cubic ux (row t ~iy ~uy (ix - 1)) (row t ~iy ~uy ix)
      (row t ~iy ~uy (ix + 1)) (row t ~iy ~uy (ix + 2))

  type slice = { sx0 : float; sdx : float; rows : float array }

  let y_slice t y =
    let ny = ny t in
    let py = position ~origin:t.y0 ~step:t.dy ny y in
    let iy = cell ny py in
    let uy = py -. float_of_int iy in
    { sx0 = t.x0; sdx = t.dx; rows = Array.init (nx t) (row t ~iy ~uy) }

  let eval_slice s x =
    let rows = s.rows in
    let nx = Array.length rows in
    let px = position ~origin:s.sx0 ~step:s.sdx nx x in
    let ix = cell nx px in
    cubic (px -. float_of_int ix)
      rows.(clampi 0 (nx - 1) (ix - 1))
      rows.(ix) rows.(ix + 1)
      rows.(clampi 0 (nx - 1) (ix + 2))

  (* A slice re-contracted in place at each [y], and per index [i] the
     x-basis of the last [x] scored there: its cell [cols.(i)] ([-1]
     before any) and the four Catmull–Rom weights
     [weights.(4i .. 4i+3)], which depend on [x] alone. *)
  type scorer = {
    surface : t;
    slice : slice;
    mutable keys : int array;
    mutable cols : int array;
    mutable weights : float array;
  }

  let scorer t =
    { surface = t; slice = y_slice t 0.0; keys = [||]; cols = [||]; weights = [||] }

  (* [y_slice]'s rows at [float_of_int y], written over the slice's. *)
  let reslice t s y =
    let ny = ny t in
    let py = position ~origin:t.y0 ~step:t.dy ny (float_of_int y) in
    let iy = cell ny py in
    let uy = py -. float_of_int iy in
    let rows = s.rows in
    for i = 0 to Array.length rows - 1 do
      rows.(i) <- row t ~iy ~uy i
    done

  let basis sc i x =
    let nx = Array.length sc.slice.rows in
    let px = position ~origin:sc.slice.sx0 ~step:sc.slice.sdx nx (float_of_int x) in
    let ix = cell nx px in
    let u = px -. float_of_int ix in
    let u2 = u *. u in
    let u3 = u2 *. u in
    let w = sc.weights and b = 4 * i in
    w.(b) <- w0 u u2 u3;
    w.(b + 1) <- w1 u2 u3;
    w.(b + 2) <- w2 u u2 u3;
    w.(b + 3) <- w3 u2 u3;
    sc.cols.(i) <- ix;
    sc.keys.(i) <- x

  (* [eval_slice] term for term, with the weights read back: the same
     products summed in the same order. *)
  let score_at sc ~y ~n xs out =
    reslice sc.surface sc.slice y;
    if Array.length sc.cols < n then begin
      sc.keys <- Array.make n 0;
      sc.cols <- Array.make n (-1);
      sc.weights <- Array.make (4 * n) 0.0
    end;
    let rows = sc.slice.rows and cols = sc.cols and w = sc.weights in
    let last = Array.length rows - 1 in
    for i = 0 to n - 1 do
      let x = xs.(i) in
      if cols.(i) < 0 || sc.keys.(i) <> x then basis sc i x;
      let ix = cols.(i) and b = 4 * i in
      out.(i) <-
        (w.(b) *. rows.(clampi 0 last (ix - 1)))
        +. (w.(b + 1) *. rows.(ix))
        +. (w.(b + 2) *. rows.(ix + 1))
        +. (w.(b + 3) *. rows.(clampi 0 last (ix + 2)))
    done
end
