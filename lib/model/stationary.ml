let create ?(time = 0) dist =
  let pmf ~time:_ ~last:_ delta =
    if delta < 1 then invalid_arg "Stationary.pmf: delta < 1";
    dist
  in
  Predictor.make ~name:"stationary" ~time ~pmf ()
