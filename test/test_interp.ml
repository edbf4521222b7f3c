open Ssj_core
open Helpers

let test_curve_exact_at_samples () =
  let c = Interp.Curve.create ~lo:(-2) [| 4.0; 1.0; 0.0; 1.0; 5.0 |] in
  check_int "lo" (-2) (Interp.Curve.lo c);
  List.iteri
    (fun i y -> check_float ~eps:0.0 "sample" y (Interp.Curve.eval c (i - 2)))
    [ 4.0; 1.0; 0.0; 1.0; 5.0 ];
  check_float ~eps:0.0 "clamp left" 4.0 (Interp.Curve.eval c (-3));
  check_float ~eps:0.0 "clamp far left" 4.0 (Interp.Curve.eval c (-10));
  check_float ~eps:0.0 "clamp right" 5.0 (Interp.Curve.eval c 3);
  check_float ~eps:0.0 "clamp far right" 5.0 (Interp.Curve.eval c 10)

(* [d - lo] overflows at [min_int] for a positive [lo] and at [max_int]
   for a negative one: [eval] must clamp before it subtracts. *)
let test_curve_extreme_offsets () =
  List.iter
    (fun lo ->
      let c = Interp.Curve.create ~lo [| 1.0; 2.0; 3.0 |] in
      let name what = Printf.sprintf "%s, lo = %d" what lo in
      check_float ~eps:0.0 (name "min_int") 1.0 (Interp.Curve.eval c min_int);
      check_float ~eps:0.0 (name "max_int") 3.0 (Interp.Curve.eval c max_int);
      check_float ~eps:0.0 (name "middle") 2.0 (Interp.Curve.eval c (lo + 1)))
    [ -5; 0; 5; min_int; max_int - 2 ]

let test_curve_rejects_bad_input () =
  Alcotest.check_raises "one sample"
    (Invalid_argument "Interp.Curve.create: need >= 2 samples") (fun () ->
      ignore (Interp.Curve.create ~lo:0 [| 1.0 |]));
  Alcotest.check_raises "past max_int"
    (Invalid_argument "Interp.Curve.create: grid passes max_int") (fun () ->
      ignore (Interp.Curve.create ~lo:(max_int - 1) [| 1.0; 2.0; 3.0 |]))

let surface_of f ~x0 ~dx ~y0 ~dy ~nx ~ny =
  Interp.Surface.create ~x0 ~dx ~y0 ~dy
    (Array.init nx (fun i ->
         Array.init ny (fun j ->
             f (x0 +. (float_of_int i *. dx)) (y0 +. (float_of_int j *. dy)))))

let test_surface_interpolates_samples () =
  let f x y = (2.0 *. x) +. (3.0 *. y) +. (x *. y) in
  let s = surface_of f ~x0:0.0 ~dx:1.0 ~y0:0.0 ~dy:1.0 ~nx:6 ~ny:6 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      check_float ~eps:1e-9 "node value"
        (f (float_of_int i) (float_of_int j))
        (Interp.Surface.eval s (float_of_int i) (float_of_int j))
    done
  done

let test_surface_reproduces_bilinear () =
  (* Catmull-Rom bicubic reproduces polynomials up to degree 3 in each
     variable away from the clamped border; a bilinear function is exact
     even with the border clamping. *)
  let f x y = 1.0 +. (2.0 *. x) -. (0.5 *. y) in
  let s = surface_of f ~x0:0.0 ~dx:1.0 ~y0:0.0 ~dy:1.0 ~nx:8 ~ny:8 in
  List.iter
    (fun (x, y) ->
      check_float ~eps:1e-9
        (Printf.sprintf "bilinear at (%.2f, %.2f)" x y)
        (f x y)
        (Interp.Surface.eval s x y))
    [ (2.5, 3.5); (1.25, 4.75); (3.0, 3.0); (4.9, 2.1) ]

let test_surface_smooth_approximation () =
  (* Interior accuracy on a smooth non-polynomial function. *)
  let f x y = sin (x /. 3.0) *. cos (y /. 4.0) in
  let s = surface_of f ~x0:0.0 ~dx:1.0 ~y0:0.0 ~dy:1.0 ~nx:12 ~ny:12 in
  let max_err = ref 0.0 in
  for i = 20 to 90 do
    for j = 20 to 90 do
      let x = float_of_int i /. 10.0 and y = float_of_int j /. 10.0 in
      let err = Float.abs (f x y -. Interp.Surface.eval s x y) in
      if err > !max_err then max_err := err
    done
  done;
  check_bool "interior error < 1e-3" true (!max_err < 1e-3)

let test_surface_clamps () =
  let f x y = x +. y in
  let s = surface_of f ~x0:0.0 ~dx:1.0 ~y0:0.0 ~dy:1.0 ~nx:4 ~ny:4 in
  check_float ~eps:1e-9 "clamped corner" 0.0 (Interp.Surface.eval s (-5.0) (-5.0));
  check_float ~eps:1e-9 "clamped far corner" 6.0 (Interp.Surface.eval s 99.0 99.0)

let test_y_slice_bit_equal () =
  (* The staged scorer (one y-slice, then a 1-D cubic per x) must equal
     [eval] bit for bit: random points, every node, and points clamped
     past each of the four edges. *)
  let f x y = sin (x /. 3.0) *. cos (y /. 4.0) +. (0.01 *. x *. y) in
  let s = surface_of f ~x0:(-2.0) ~dx:1.5 ~y0:3.0 ~dy:0.75 ~nx:6 ~ny:7 in
  let same x y =
    check_float ~eps:0.0
      (Printf.sprintf "slice at (%h, %h)" x y)
      (Interp.Surface.eval s x y)
      (Interp.Surface.eval_slice (Interp.Surface.y_slice s y) x)
  in
  let r = rng 7 in
  for _ = 1 to 500 do
    same (Ssj_prob.Rng.float r 10.0 -. 3.0) (Ssj_prob.Rng.float r 7.0 +. 2.0)
  done;
  for i = 0 to 5 do
    for j = 0 to 6 do
      same (-2.0 +. (1.5 *. float_of_int i)) (3.0 +. (0.75 *. float_of_int j))
    done
  done;
  (* x spans [-2, 5.5], y spans [3, 7.5] *)
  List.iter
    (fun (x, y) -> same x y)
    [ (-9.0, 5.0); (40.0, 5.0); (1.3, -4.0); (1.3, 60.0); (-9.0, -4.0);
      (40.0, 60.0); (-2.0, 7.5); (5.5, 3.0) ]

let test_surface_rejects_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Interp.Surface.create: ragged rows") (fun () ->
      ignore
        (Interp.Surface.create ~x0:0.0 ~dx:1.0 ~y0:0.0 ~dy:1.0
           [| [| 1.0; 2.0 |]; [| 1.0 |] |]))

let suite =
  [
    Alcotest.test_case "curve samples and clamps" `Quick
      test_curve_exact_at_samples;
    Alcotest.test_case "curve input validation" `Quick
      test_curve_rejects_bad_input;
    Alcotest.test_case "surface interpolates nodes" `Quick
      test_surface_interpolates_samples;
    Alcotest.test_case "surface exact on bilinear" `Quick
      test_surface_reproduces_bilinear;
    Alcotest.test_case "surface smooth accuracy" `Quick
      test_surface_smooth_approximation;
    Alcotest.test_case "surface clamps outside" `Quick test_surface_clamps;
    Alcotest.test_case "y-slice scorer bit-equal to eval" `Quick
      test_y_slice_bit_equal;
    Alcotest.test_case "surface rejects ragged rows" `Quick
      test_surface_rejects_ragged;
    Alcotest.test_case "curve eval at min_int/max_int" `Quick
      test_curve_extreme_offsets;
  ]
