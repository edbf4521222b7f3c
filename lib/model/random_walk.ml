open Ssj_prob

let window = 400

let create ?(time = 0) ~start ~drift ~step () =
  let table = Convolve.Table.create step in
  let pmf ~time:_ ~last delta =
    if delta < 1 then invalid_arg "Random_walk.pmf: delta < 1";
    let anchor = match last with Some v -> v | None -> start in
    Pmf.shift (Convolve.Table.get table delta) (anchor + (drift * delta))
  in
  (* A walk is shift-invariant: one kernel over offsets from the running
     value serves every position the walk reaches. *)
  let kernel = Markov.of_step ~step ~drift ~lo:(-window) ~hi:window in
  Predictor.make ~name:"random-walk" ~kernel:(Predictor.Relative kernel)
    ~last:start ~time ~pmf ()
