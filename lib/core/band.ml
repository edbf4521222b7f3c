open Ssj_model

(* Saturated, so a value within [band] of [min_int] or [max_int] does not
   wrap round to an empty (or inverted) range. *)
let range ~value ~band =
  ( (if value < min_int + band then min_int else value - band),
    if value > max_int - band then max_int else value + band )

let match_prob pmf ~value ~band =
  if band < 0 then invalid_arg "Band.match_prob: negative band";
  let lo, hi = range ~value ~band in
  Ssj_prob.Pmf.interval_prob pmf ~lo ~hi

let ecb ~partner ~value ~band ~horizon =
  if horizon < 1 then invalid_arg "Band.ecb: horizon < 1";
  let b = Array.make horizon 0.0 in
  let acc = ref 0.0 in
  for d = 1 to horizon do
    acc := !acc +. match_prob (partner.Predictor.pmf d) ~value ~band;
    b.(d - 1) <- !acc
  done;
  b

let hvalue ~partner ~l ~value ~band =
  if l.Lfun.horizon >= max_int / 8 then
    invalid_arg "Band.hvalue: L has no finite horizon";
  let acc = ref 0.0 in
  for d = 1 to l.Lfun.horizon do
    let w = l.Lfun.l d in
    if w > 0.0 then
      acc := !acc +. (match_prob (partner.Predictor.pmf d) ~value ~band *. w)
  done;
  !acc

let heeb ?name ~r ~s ~l ~band () =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB-band(%d)" band
  in
  let tr = Heeb.Tracker.create ~r ~s in
  Policy.scored ~name ~observe:(Heeb.Tracker.observe tr)
    (fun ~now:_ ~capacity:_ ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        let partner = Heeb.Tracker.partner tr (uids.(i) land 1) in
        scores.(i) <- hvalue ~partner ~l ~value:values.(i) ~band
      done)
