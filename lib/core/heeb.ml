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

(* Every HEEB caching policy: [observe] sees each reference; a hit or a
   miss with room keeps every candidate, so nothing is scored; a full
   miss fills the scores of all [n + 1] candidates (the [n] slots, then
   the fetched value staged in slot [n]) and drops the shared argmin
   under [Float.compare], ties to the smaller value — the last of a
   best-first sort with ties to the larger value. *)
let on_full_miss ~cname ~observe fill =
  let access ~now ~(cached : Policy.slots) ~value ~hit ~capacity =
    observe value;
    if hit || cached.n < capacity then Policy.no_drop
    else begin
      fill ~now ~value cached;
      Policy.drop_argmin Policy.Smaller_value cached
    end
  in
  { Policy.cname; access }

let caching ?name ~reference ~l () =
  let pred = ref reference in
  let cname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB(%s)" l.Lfun.name
  in
  on_full_miss ~cname
    ~observe:(fun value -> pred := !pred.Predictor.observe value)
    (fun ~now:_ ~value:_ (c : Policy.slots) ->
      for i = 0 to c.n do
        c.scores.(i) <- caching_direct_h !pred ~l c.values.(i)
      done)

type fill =
  now:int -> last:int -> n:int -> values:int array -> scores:float array -> unit

(* The history x̄_{t0} includes the reference just observed, so the
   conditioning value [last] is today's [value]. *)
let caching_kernel ?name (fill : fill) =
  let cname = Option.value ~default:"HEEB(h)" name in
  on_full_miss ~cname ~observe:ignore (fun ~now ~value (c : Policy.slots) ->
      fill ~now ~last:value ~n:(c.n + 1) ~values:c.values ~scores:c.scores)

let caching_fn ?name ~h () =
  caching_kernel ?name (fun ~now ~last ~n ~values ~scores ->
      let score = h ~now ~last in
      for i = 0 to n - 1 do
        scores.(i) <- score values.(i)
      done)
