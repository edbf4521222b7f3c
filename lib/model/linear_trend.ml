let linear ?(time = -1) ~speed ~offset ~noise () =
  let pmf ~time ~last:_ delta =
    if delta < 1 then invalid_arg "Linear_trend.pmf: delta < 1";
    Ssj_prob.Pmf.shift noise ((speed * (time + delta)) + offset)
  in
  Predictor.make ~name:"linear-trend" ~time ~pmf ()
