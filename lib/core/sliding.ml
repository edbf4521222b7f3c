open Ssj_stream
open Ssj_model

let heeb ?name ~r ~s ~alpha ~window () =
  let base = Lfun.exp_ ~alpha in
  let width = Window.width window in
  let r_pred = ref r and s_pred = ref s in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB-W(a=%.3g,w=%d)" alpha width
  in
  let note (t : Tuple.t) =
    match t.Tuple.side with
    | Tuple.R -> r_pred := !r_pred.Predictor.observe t.Tuple.value
    | Tuple.S -> s_pred := !s_pred.Predictor.observe t.Tuple.value
  in
  let observe ~r ~s =
    note r;
    note s
  in
  Policy.scored ~name ~observe (fun ~now ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        let remaining = Window.remaining_at window ~now ~arrival:(uids.(i) asr 1) in
        scores.(i) <-
          (if remaining <= 0 then Float.neg_infinity
           else
             let partner = if uids.(i) land 1 = 0 then !s_pred else !r_pred in
             Hvalue.joining ~partner
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
