open Ssj_prob

type params = { phi0 : float; phi1 : float; sigma : float }

let validate p =
  if not (Float.abs p.phi1 > 0.0 && Float.abs p.phi1 < 1.0) then
    invalid_arg "Ar1: requires 0 < |phi1| < 1";
  if p.sigma <= 0.0 then invalid_arg "Ar1: sigma <= 0"

let conditional_mean p ~x0 ~delta =
  let pd = p.phi1 ** float_of_int delta in
  (pd *. x0) +. (p.phi0 *. (1.0 -. pd) /. (1.0 -. p.phi1))

let conditional_stddev p ~delta =
  let p2d = p.phi1 ** (2.0 *. float_of_int delta) in
  p.sigma *. sqrt ((1.0 -. p2d) /. (1.0 -. (p.phi1 *. p.phi1)))

let stationary_mean p = p.phi0 /. (1.0 -. p.phi1)
let stationary_stddev p = p.sigma /. sqrt (1.0 -. (p.phi1 *. p.phi1))

let kernel p =
  let mean = stationary_mean p and sd = stationary_stddev p in
  Markov.of_ar1 ~phi0:p.phi0 ~phi1:p.phi1 ~sigma:p.sigma
    ~lo:(int_of_float (Float.round (mean -. (6.0 *. sd))))
    ~hi:(int_of_float (Float.round (mean +. (6.0 *. sd))))

let create ?(time = 0) ~start p =
  validate p;
  let pmf ~time:_ ~last delta =
    if delta < 1 then invalid_arg "Ar1.pmf: delta < 1";
    let anchor = match last with Some v -> float_of_int v | None -> float_of_int start in
    let mu = conditional_mean p ~x0:anchor ~delta in
    let sd = conditional_stddev p ~delta in
    let spread = int_of_float (Float.ceil (5.0 *. sd)) + 1 in
    let center = int_of_float (Float.round mu) in
    Dist.discretized_normal_mu ~mu ~sigma:sd ~lo:(center - spread)
      ~hi:(center + spread)
  in
  Predictor.make ~name:"ar1" ~kernel:(Predictor.Absolute (kernel p)) ~last:start
    ~time ~pmf ()
