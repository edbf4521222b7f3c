open Ssj_stream
open Ssj_model

type mode = [ `Direct | `Memo_trend of int ]

(* ------------------------------------------------------------------ *)
(* Joining                                                             *)
(* ------------------------------------------------------------------ *)

module Tracker = struct
  type t = { mutable r_pred : Predictor.t; mutable s_pred : Predictor.t }

  let create ~r ~s = { r_pred = r; s_pred = s }

  let note tr (t : Tuple.t) =
    match t.side with
    | Tuple.R -> tr.r_pred <- tr.r_pred.Predictor.observe t.value
    | Tuple.S -> tr.s_pred <- tr.s_pred.Predictor.observe t.value

  let observe tr ~r ~s =
    note tr r;
    note tr s

  (* An R tuple (side bit 0) joins the S stream's future arrivals and
     vice versa. *)
  let[@inline] partner tr bit = if bit = 0 then tr.s_pred else tr.r_pred
end

let direct_h tr ~l ~bit ~value =
  Hvalue.joining ~partner:(Tracker.partner tr bit) ~l ~value

let joining ?name ~r ~s ~l ?(mode = `Direct) () =
  let tr = Tracker.create ~r ~s in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB(%s)" l.Lfun.name
  in
  match mode with
  | `Direct ->
    Policy.scored ~name ~observe:(Tracker.observe tr)
      (fun ~now:_ ~n ~uids ~values ~scores ->
        for i = 0 to n - 1 do
          Array.unsafe_set scores i
            (direct_h tr ~l ~bit:(Array.unsafe_get uids i land 1)
               ~value:(Array.unsafe_get values i))
        done)
  | `Memo_trend speed ->
    (* H depends only on the trend-relative offset: the memo key is the
       offset with the side in the low bit, and a memo hit — one table
       probe per candidate — is the per-step steady state.  H values are
       finite sums of probability-weighted L values and never NaN, so
       NaN doubles as the absence marker. *)
    let memo = Ssj_prob.Ftab.create ~size:128 () in
    Policy.scored ~name ~observe:(Tracker.observe tr)
      (fun ~now ~n ~uids ~values ~scores ->
        let shift = speed * now in
        for i = 0 to n - 1 do
          let bit = Array.unsafe_get uids i land 1 in
          let value = Array.unsafe_get values i in
          let key = ((value - shift) lsl 1) lor bit in
          let h = Ssj_prob.Ftab.find_default memo key Float.nan in
          let h =
            if Float.is_nan h then begin
              let h = direct_h tr ~l ~bit ~value in
              Ssj_prob.Ftab.set memo key h;
              h
            end
            else h
          in
          Array.unsafe_set scores i h
        done)

(* A curve's samples with both grid ends, read once: [lookup] is
   {!Interp.Curve.eval} inlined into the scoring loop, where a
   cross-module call per candidate would box its float result. *)
type table = { lo : int; hi : int; ys : float array }

let table c =
  let lo = Interp.Curve.lo c and ys = Interp.Curve.samples c in
  { lo; hi = lo + Array.length ys - 1; ys }

let[@inline] lookup t d =
  if d <= t.lo then Array.unsafe_get t.ys 0
  else if d >= t.hi then Array.unsafe_get t.ys (t.hi - t.lo)
  else Array.unsafe_get t.ys (d - t.lo)

let joining_curves ?name ~h_r_tuples ~h_s_tuples () =
  let r_table = table h_r_tuples and s_table = table h_s_tuples in
  let r_last = ref None and s_last = ref None in
  let name = Option.value ~default:"HEEB(h1)" name in
  let note (t : Tuple.t) =
    match t.side with
    | Tuple.R -> r_last := Some t.value
    | Tuple.S -> s_last := Some t.value
  in
  let observe ~r ~s =
    note r;
    note s
  in
  Policy.scored ~name ~observe (fun ~now:_ ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        (* R tuples join future S arrivals: offset against S's position. *)
        let is_r = uids.(i) land 1 = 0 in
        match if is_r then !s_last else !r_last with
        | None -> scores.(i) <- 0.0
        | Some x ->
          scores.(i) <- lookup (if is_r then r_table else s_table) (values.(i) - x)
      done)

(* The adaptive variant's residence-time estimate: its seed before any
   eviction has been seen, and the moving average's weight. *)
let initial_lifetime = 5.0
let smoothing = 0.05

let joining_adaptive ?name ~r ~s () =
  let name = Option.value ~default:"HEEB-adaptive" name in
  let tr = Tracker.create ~r ~s in
  let lifetime = ref initial_lifetime in
  let kernel ~now:_ ~n ~uids ~values ~scores =
    let alpha = Lfun.alpha_for_lifetime (Float.max 1.01 !lifetime) in
    let l = Lfun.exp_ ~alpha in
    for i = 0 to n - 1 do
      scores.(i) <- direct_h tr ~l ~bit:(uids.(i) land 1) ~value:values.(i)
    done
  in
  (* Update the lifetime estimate from this step's evictions, in cache
     order.  A tuple enters the cache only in its arrival step, so its
     residence time is [now - arrival]. *)
  let after ~now ~(src : Policy.buffer) ~(dst : Policy.buffer) =
    for i = 0 to src.n - 1 do
      let evicted = ref false in
      for e = 0 to dst.evicted_n - 1 do
        if dst.evicted.(e) = i then evicted := true
      done;
      if !evicted then begin
        let residence = float_of_int (max 1 (now - (src.uids.(i) asr 1))) in
        lifetime := ((1.0 -. smoothing) *. !lifetime) +. (smoothing *. residence)
      end
    done
  in
  Policy.scored ~name ~observe:(Tracker.observe tr) ~after kernel

(* ------------------------------------------------------------------ *)
(* Caching                                                             *)
(* ------------------------------------------------------------------ *)

let caching_direct_h pred ~l value =
  match pred.Predictor.kernel with
  | Some kernel ->
    let start =
      match pred.Predictor.last with
      | Some v -> max kernel.Markov.lo (min kernel.Markov.hi v)
      | None -> (kernel.Markov.lo + kernel.Markov.hi) / 2
    in
    Hvalue.caching_markov ~kernel ~start ~l ~value
  | None -> Hvalue.caching_independent ~reference:pred ~l ~value

(* The caching policies' selection.  As a set it equals keeping the
   [capacity] best candidates (the fetched [value] on a miss, then the
   cache) by score, ties to the larger value.  When the candidates fit —
   every hit, every miss with room — that keeps them all and nothing is
   scored.  Otherwise [drop_worst] removes, one pass each, the candidate
   such a sort would rank last: the smallest score under [Float.compare],
   ties to the smaller value.  Cache_sim's contract ([cached] within
   [capacity]) makes that one drop, so [score] runs once per candidate. *)
let candidates ~cached ~value ~hit = if hit then cached else value :: cached

let fits ~capacity candidates = List.compare_length_with candidates capacity <= 0

let rec worst ~score w ws = function
  | [] -> w
  | (v : int) :: rest ->
    let s = score v in
    let c = Float.compare s ws in
    if c < 0 || (c = 0 && v < w) then worst ~score v s rest
    else worst ~score w ws rest

(* The list without its first [v], sharing the tail after it. *)
let rec remove (v : int) = function
  | [] -> []
  | w :: rest -> if w = v then rest else w :: remove v rest

let drop_worst ~capacity ~score candidates =
  let rec drop excess candidates =
    match candidates with
    | v :: rest when excess > 0 ->
      drop (excess - 1) (remove (worst ~score v (score v) rest) candidates)
    | _ -> candidates
  in
  drop (List.length candidates - capacity) candidates

let caching ?name ~reference ~l () =
  let pred = ref reference in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB(%s)" l.Lfun.name
  in
  let access ~now:_ ~cached ~value ~hit ~capacity =
    pred := !pred.Predictor.observe value;
    let candidates = candidates ~cached ~value ~hit in
    if fits ~capacity candidates then candidates
    else drop_worst ~capacity ~score:(caching_direct_h !pred ~l) candidates
  in
  { Policy.cname = name; access }

let caching_fn ?name ~h () =
  let name = Option.value ~default:"HEEB(h)" name in
  let access ~now ~cached ~value ~hit ~capacity =
    let candidates = candidates ~cached ~value ~hit in
    if fits ~capacity candidates then candidates
    else
      (* The history x̄_{t0} includes the reference just observed, so the
         conditioning value for h2(v_x, x_{t0}) is today's [value]. *)
      drop_worst ~capacity ~score:(h ~now ~last:value) candidates
  in
  { Policy.cname = name; access }
