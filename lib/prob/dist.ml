let uniform ~lo ~hi =
  if lo > hi then invalid_arg "Dist.uniform: lo > hi";
  Pmf.create ~lo (Array.make (hi - lo + 1) 1.0)

let discretized_normal_mu ~mu ~sigma ~lo ~hi =
  if sigma <= 0.0 then invalid_arg "Dist.discretized_normal: sigma <= 0";
  if lo > hi then invalid_arg "Dist.discretized_normal: lo > hi";
  let bin v =
    Special.normal_cdf ~mu ~sigma (float_of_int v +. 0.5)
    -. Special.normal_cdf ~mu ~sigma (float_of_int v -. 0.5)
  in
  Pmf.create ~lo (Array.init (hi - lo + 1) (fun i -> bin (lo + i)))

let discretized_normal ~sigma ~bound =
  if bound < 0 then invalid_arg "Dist.discretized_normal: bound < 0";
  discretized_normal_mu ~mu:0.0 ~sigma ~lo:(-bound) ~hi:bound
