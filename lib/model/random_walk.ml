open Ssj_prob

let create ?(time = 0) ?(window = 400) ~start ~drift ~step () =
  let table = Convolve.Table.create step in
  let pmf ~time:_ ~last delta =
    if delta < 1 then invalid_arg "Random_walk.pmf: delta < 1";
    let anchor = match last with Some v -> v | None -> start in
    Pmf.shift (Convolve.Table.get table delta) (anchor + (drift * delta))
  in
  let kernel =
    Markov.of_step ~step ~drift ~lo:(start - window) ~hi:(start + window)
  in
  Predictor.make ~name:"random-walk" ~kernel ~last:start ~time ~pmf ()
