type t = { r_values : int array; s_values : int array }

let length t = Array.length t.r_values

let of_values ~r ~s =
  if Array.length r <> Array.length s then
    invalid_arg "Trace.of_values: stream lengths differ";
  { r_values = r; s_values = s }

let generate ~r ~s ~rng ~length =
  let rng_r = Ssj_prob.Rng.split rng in
  let rng_s = Ssj_prob.Rng.split rng in
  let r_values, _ = Ssj_model.Predictor.generate r rng_r length in
  let s_values, _ = Ssj_model.Predictor.generate s rng_s length in
  { r_values; s_values }

let tuple t side time =
  let values =
    match side with Tuple.R -> t.r_values | Tuple.S -> t.s_values
  in
  if time < 0 || time >= Array.length values then
    invalid_arg "Trace.tuple: time out of range";
  Tuple.make ~side ~value:values.(time) ~arrival:time

let arrivals t time = (tuple t Tuple.R time, tuple t Tuple.S time)
