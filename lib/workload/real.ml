open Ssj_prob
open Ssj_model

let paper_params = { Ar1.phi0 = 5.59; phi1 = 0.72; sigma = 4.22 }

let synthetic_ar1 ?(params = paper_params) ~rng ~days () =
  if days < 1 then invalid_arg "Real.synthetic_ar1: days < 1";
  let series = Array.make days 0.0 in
  let x = ref (Ar1.stationary_mean params) in
  for t = 0 to days - 1 do
    x :=
      params.Ar1.phi0
      +. (params.Ar1.phi1 *. !x)
      +. Rng.gaussian rng ~mu:0.0 ~sigma:params.Ar1.sigma;
    series.(t) <- !x
  done;
  series

let to_bins series =
  Array.map (fun t -> int_of_float (Float.round (t *. 10.0))) series

let bin_params (p : Ar1.params) =
  { p with Ar1.phi0 = p.Ar1.phi0 *. 10.0; sigma = p.Ar1.sigma *. 10.0 }
