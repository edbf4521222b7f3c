let never_value = min_int / 2

let create ?(time = -1) ?(strict = false) values =
  let pmf ~time ~last:_ delta =
    if delta < 1 then invalid_arg "Offline.pmf: delta < 1";
    let t = time + delta in
    if t >= 0 && t < Array.length values then Ssj_prob.Pmf.point values.(t)
    else if strict then
      invalid_arg "Offline.pmf: horizon exceeds the scripted stream"
    else Ssj_prob.Pmf.point never_value
  in
  let last =
    if time >= 0 && time < Array.length values then Some values.(time) else None
  in
  Predictor.make ~name:"offline" ?last ~time ~pmf ()
