open Ssj_stream

module Obs = Ssj_obs.Obs

(* Fired-perturbation counters: the degradation grids report these next
   to the policy means, so a run can show *how much* dirt a severity
   level actually injected (rates are per-arrival probabilities; the
   realised counts depend on seed and length). *)
let m_drops = Obs.Counter.create "fault.injected_drops"
let m_dups = Obs.Counter.create "fault.injected_duplicates"
let m_bursts = Obs.Counter.create "fault.injected_bursts"
let m_stalls = Obs.Counter.create "fault.injected_stalls"
let m_noise = Obs.Counter.create "fault.injected_noise"
let m_silence = Obs.Counter.create "fault.silence_padding"
let m_splices = Obs.Counter.create "fault.regime_splices"

type kind =
  | Drop of { rate : float }
  | Duplicate of { rate : float }
  | Burst of { rate : float; len : int }
  | Stall of { rate : float; len : int }
  | Noise of { rate : float; amp : int }

type spec = { kinds : kind list; seed : int }

let identity = { kinds = []; seed = 0 }

let kind_inert = function
  | Drop { rate } | Duplicate { rate } | Noise { rate; _ } -> rate <= 0.0
  | Burst { rate; len } -> rate <= 0.0 || len <= 1
  | Stall { rate; len } -> rate <= 0.0 || len <= 0

let is_identity spec = List.for_all kind_inert spec.kinds

(* Silence sentinels live far below any workload value (trend values
   track speed·t within a noise bound; walks drift by at most a few
   hundred) and are pairwise distinct — also across sides, so an R
   sentinel can never equijoin an S sentinel.  They model "no arrival":
   a tuple that joins nothing and scores as already dead for every
   window-aware policy.

   The magnitude is a deliberate compromise: PROB/LIFE keep their value
   histories in dense counter arrays while the key span stays small, so
   a sentinel at −10⁸ would push them onto their slower hashed fallback
   for the whole run.  −10⁵ keeps the dense arrays small while leaving
   orders of magnitude of clearance under every workload. *)
let silence_threshold = -50_000
let side_base = function Tuple.R -> -100_000 | Tuple.S -> -200_000
let is_silence v = v <= silence_threshold

(* --- per-side pipeline ---------------------------------------------- *)

(* Growable emission buffer; faults change lengths by O(rate·n). *)
type buf = { mutable a : int array; mutable n : int }

let buf_make cap = { a = Array.make (max 16 cap) 0; n = 0 }

let emit b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* Each stage consumes exactly one bernoulli draw per input position it
   visits, fired or not, so an inert stage (rate 0) emits the input
   verbatim and the identity property holds structurally rather than by
   a shortcut the tests could miss. *)
let stage ~rng ~fresh_silence kind values =
  let n = Array.length values in
  let out = buf_make (n + 8) in
  (match kind with
  | Drop { rate } ->
    Array.iter
      (fun v ->
        if Ssj_prob.Rng.bernoulli rng rate then Obs.Counter.incr m_drops
        else emit out v)
      values
  | Duplicate { rate } ->
    Array.iter
      (fun v ->
        emit out v;
        if Ssj_prob.Rng.bernoulli rng rate then begin
          Obs.Counter.incr m_dups;
          emit out v
        end)
      values
  | Burst { rate; len } ->
    let i = ref 0 in
    while !i < n do
      let v = values.(!i) in
      if Ssj_prob.Rng.bernoulli rng rate && len > 1 then begin
        (* Hot-key flood: this arrival is re-delivered over the next
           [len − 1] steps, consuming the tuples it displaces. *)
        Obs.Counter.incr m_bursts;
        let reps = min len (n - !i) in
        for _ = 1 to reps do
          emit out v
        done;
        i := !i + reps
      end
      else begin
        emit out v;
        incr i
      end
    done
  | Stall { rate; len } ->
    Array.iter
      (fun v ->
        if Ssj_prob.Rng.bernoulli rng rate && len > 0 then begin
          Obs.Counter.incr m_stalls;
          for _ = 1 to len do
            emit out (fresh_silence ())
          done
        end;
        emit out v)
      values
  | Noise { rate; amp } ->
    Array.iter
      (fun v ->
        if Ssj_prob.Rng.bernoulli rng rate && amp > 0 then begin
          Obs.Counter.incr m_noise;
          emit out (v + Ssj_prob.Rng.int rng ((2 * amp) + 1) - amp)
        end
        else emit out v)
      values);
  contents out

(* Re-fit a perturbed sequence to the trace length the simulator
   replays: overflow is cut (those tuples never arrive), shortfall is
   silence (the stream ended early). *)
let fit ~length ~fresh_silence values =
  let n = Array.length values in
  if n = length then values
  else if n > length then Array.sub values 0 length
  else
    Array.init length (fun i ->
        if i < n then values.(i)
        else begin
          Obs.Counter.incr m_silence;
          fresh_silence ()
        end)

let side_index = function Tuple.R -> 0 | Tuple.S -> 1

let apply_side spec ~side values =
  let length = Array.length values in
  let rng =
    Ssj_prob.Rng.create (spec.seed + (0x2545F49 * side_index side) + 13)
  in
  let counter = ref 0 in
  let base = side_base side in
  let fresh_silence () =
    decr counter;
    base + !counter
  in
  let out =
    List.fold_left
      (fun values kind ->
        (* One split per stage: a stage's draw count varies with what it
           fires on, so stages must not interleave draws from a shared
           generator. *)
        stage ~rng:(Ssj_prob.Rng.split rng) ~fresh_silence kind values)
      values spec.kinds
  in
  fit ~length ~fresh_silence out

let apply spec trace =
  Trace.of_values
    ~r:(apply_side spec ~side:Tuple.R trace.Trace.r_values)
    ~s:(apply_side spec ~side:Tuple.S trace.Trace.s_values)

(* --- regime switch --------------------------------------------------- *)

let splice ~at ~before ~after =
  let n = Trace.length before in
  if Trace.length after <> n then
    invalid_arg "Fault.splice: trace lengths differ";
  let at = max 0 (min n at) in
  Obs.Counter.incr m_splices;
  let cut pre post = Array.init n (fun i -> if i < at then pre.(i) else post.(i)) in
  Trace.of_values
    ~r:(cut before.Trace.r_values after.Trace.r_values)
    ~s:(cut before.Trace.s_values after.Trace.s_values)

let generate_switched ~r ~s ~r_after ~s_after ~at ~rng ~length =
  let rng_before = Ssj_prob.Rng.split rng in
  let rng_after = Ssj_prob.Rng.split rng in
  let before = Trace.generate ~r ~s ~rng:rng_before ~length in
  let after =
    Trace.generate ~r:r_after ~s:s_after ~rng:rng_after ~length
  in
  splice ~at ~before ~after

(* --- labels ---------------------------------------------------------- *)

let kind_label = function
  | Drop _ -> "drop"
  | Duplicate _ -> "duplicate"
  | Burst _ -> "burst"
  | Stall _ -> "stall"
  | Noise _ -> "noise"

let describe = function
  | Drop { rate } -> Printf.sprintf "drop(rate=%g)" rate
  | Duplicate { rate } -> Printf.sprintf "duplicate(rate=%g)" rate
  | Burst { rate; len } -> Printf.sprintf "burst(rate=%g,len=%d)" rate len
  | Stall { rate; len } -> Printf.sprintf "stall(rate=%g,len=%d)" rate len
  | Noise { rate; amp } -> Printf.sprintf "noise(rate=%g,amp=%d)" rate amp

let spec_label spec =
  match spec.kinds with
  | [] -> "clean"
  | kinds -> String.concat "+" (List.map describe kinds)
