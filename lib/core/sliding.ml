open Ssj_stream

let heeb ?name ~r ~s ~alpha ~window () =
  let base = Lfun.exp_ ~alpha in
  let width = Window.width window in
  let tr = Heeb.Tracker.create ~r ~s in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB-W(a=%.3g,w=%d)" alpha width
  in
  Policy.scored ~name ~observe:(Heeb.Tracker.observe tr)
    (fun ~now ~capacity:_ ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        let remaining = Window.remaining_at window ~now ~arrival:(uids.(i) asr 1) in
        scores.(i) <-
          (if remaining <= 0 then Float.neg_infinity
           else
             Hvalue.joining
               ~partner:(Heeb.Tracker.partner tr (uids.(i) land 1))
               ~l:(Lfun.windowed base ~remaining)
               ~value:values.(i))
      done)

let stationary_score ~alpha ~p ~remaining_lifetime =
  if remaining_lifetime <= 0 then 0.0
  else begin
    (* p · Σ_{d=1..life} e^{-d/α} = p · r(1 − r^life)/(1 − r), r = e^{-1/α} *)
    let r = exp (-1.0 /. alpha) in
    p *. r *. (1.0 -. (r ** float_of_int remaining_lifetime)) /. (1.0 -. r)
  end

let prob_score ~p ~remaining_lifetime = if remaining_lifetime <= 0 then 0.0 else p

let life_score ~p ~remaining_lifetime =
  p *. float_of_int (max 0 remaining_lifetime)
