open Ssj_stream

(* Remaining-lifetime oracle for the baseline policies.  First-order
   representations of the two shipped shapes let the hot scoring loops
   below inline the death test (one compare per candidate) instead of
   paying a closure call per candidate per step. *)
type lifetime =
  | Trend of { r_add : int; s_add : int; speed : int }
      (** Linear-trend streams: remaining = (value + add_side)/speed − now
          (see {!Ssj_workload.Config.lifetime} for the constants). *)
  | Of_window of Window.t
      (** Sliding window: {!Ssj_stream.Window.remaining_lifetime}. *)

(* History frequency tracker: counts of each value seen per side, the
   side being a uid's low bit (R = 0, S = 1).  Stream values follow a
   trend, so each side's counts live in a dense array indexed by [value -
   base]: the per-candidate lookup, the per-step hot path of PROB and
   LIFE, is a bounds test and a load on a cache-hot line, in this module
   so that it is inlined.  A dense array's memory is its key span, so
   once a span would pass [dense_limit] entries, or a key passes
   ±[key_bound] (beyond which a span could overflow), both sides move to
   {!Ssj_prob.Itab} for good: values spanning 1e9 then cost what their
   distinct values cost.  [partner_counts_into] tests the mode once per
   step. *)
module History = struct
  module Itab = Ssj_prob.Itab

  type t = {
    counts : int array array; (* [counts.(side).(value - base.(side))] *)
    base : int array;
    mutable sparse : Itab.t array; (* per side once past the limit *)
  }

  let dense_limit = 1 lsl 18
  let key_bound = 1 lsl 60

  let create () =
    { counts = [| [||]; [||] |]; base = [| 0; 0 |]; sparse = [||] }

  let is_dense t = Array.length t.sparse = 0

  let to_sparse t =
    let side s =
      let tab = Itab.create () and base = t.base.(s) in
      Array.iteri (fun i c -> if c <> 0 then Itab.set tab (base + i) c) t.counts.(s);
      t.counts.(s) <- [||];
      tab
    in
    t.sparse <- [| side 0; side 1 |]

  (* Extend side [s]'s span to cover [v], at least doubling so that a
     drifting key range costs amortized O(1) per insertion; [false] when
     the span would pass the limit.  [|v| <= key_bound]. *)
  let grow t s v =
    let arr = t.counts.(s) in
    let len = Array.length arr in
    if len = 0 then begin
      t.counts.(s) <- Array.make 512 0;
      t.base.(s) <- v - 256;
      true
    end
    else begin
      let lo = t.base.(s) in
      let hi = lo + len in
      let nlo = if v < lo then v - len else lo in
      let nhi = if v >= hi then v + len + 1 else hi in
      if nhi - nlo > dense_limit then false
      else begin
        let wide = Array.make (nhi - nlo) 0 in
        Array.blit arr 0 wide (lo - nlo) len;
        t.counts.(s) <- wide;
        t.base.(s) <- nlo;
        true
      end
    end

  let rec add t s v =
    if not (is_dense t) then Itab.add t.sparse.(s) v 1
    else if v > key_bound || v < -key_bound then begin
      to_sparse t;
      add t s v
    end
    else begin
      let arr = t.counts.(s) in
      let i = v - t.base.(s) in
      if i >= 0 && i < Array.length arr then
        Array.unsafe_set arr i (Array.unsafe_get arr i + 1)
      else begin
        if not (grow t s v) then to_sparse t;
        add t s v
      end
    end

  let side_bit = function Tuple.R -> 0 | Tuple.S -> 1

  let observe t ~(r : Tuple.t) ~(s : Tuple.t) =
    add t (side_bit r.side) r.value;
    add t (side_bit s.side) s.value

  (* Each candidate's count in the *partner* side's history — R
     candidates (uid bit 0) against the S counts and vice versa — as a
     float into [scores].  The side is picked by indexing with the uid
     bit, not by a branch. *)
  let partner_counts_into t ~n ~uids ~values ~(scores : float array) =
    if is_dense t then begin
      let counts = t.counts and base = t.base in
      for i = 0 to n - 1 do
        let p = (Array.unsafe_get uids i land 1) lxor 1 in
        let arr = Array.unsafe_get counts p in
        let j = Array.unsafe_get values i - Array.unsafe_get base p in
        Array.unsafe_set scores i
          (float_of_int
             (if j >= 0 && j < Array.length arr then Array.unsafe_get arr j
              else 0))
      done
    end
    else begin
      let sparse = t.sparse in
      for i = 0 to n - 1 do
        let p = (Array.unsafe_get uids i land 1) lxor 1 in
        Array.unsafe_set scores i
          (float_of_int
             (Itab.find_default (Array.unsafe_get sparse p)
                (Array.unsafe_get values i) 0))
      done
    end
end

(* The candidates' remaining lifetimes, into a per-policy int scratch
   (one specialised loop per step, so the scoring loops below test
   death with one integer compare).  [remaining_into lt] is built once
   per policy: the [Trend] loop picks its per-side constant by indexing
   with the uid bit, and skips the division when [speed = 1]. *)
let remaining_into lt =
  let fill (buf : int array ref) n =
    if Array.length !buf < n then buf := Array.make (max 16 (2 * n)) 0;
    !buf
  in
  match lt with
  | Trend { r_add; s_add; speed } ->
    let adds = [| r_add; s_add |] in
    fun buf ~now ~n ~uids ~values ->
      let rems = fill buf n in
      if speed = 1 then
        for i = 0 to n - 1 do
          Array.unsafe_set rems i
            (Array.unsafe_get values i
            + Array.unsafe_get adds (Array.unsafe_get uids i land 1)
            - now)
        done
      else
        for i = 0 to n - 1 do
          Array.unsafe_set rems i
            (((Array.unsafe_get values i
              + Array.unsafe_get adds (Array.unsafe_get uids i land 1))
             / speed)
            - now)
        done;
      rems
  | Of_window w ->
    fun buf ~now ~n ~uids ~values:_ ->
      let rems = fill buf n in
      for i = 0 to n - 1 do
        Array.unsafe_set rems i
          (Window.remaining_at w ~now ~arrival:(Array.unsafe_get uids i asr 1))
      done;
      rems

(* Dead tuples (lifetime <= 0) score below every live tuple without
   consuming the scorer — RAND's RNG stream depends on it. *)
let rand ~rng ?lifetime () =
  let kernel =
    match lifetime with
    | None ->
      fun ~now:_ ~n ~uids:_ ~values:_ ~scores ->
        for i = 0 to n - 1 do
          Ssj_prob.Rng.unit_float_into rng scores i
        done
    | Some lt ->
      let buf = ref [||] and remaining = remaining_into lt in
      fun ~now ~n ~uids ~values ~scores ->
        let rems = remaining buf ~now ~n ~uids ~values in
        for i = 0 to n - 1 do
          if Array.unsafe_get rems i <= 0 then
            Array.unsafe_set scores i Float.neg_infinity
          else Ssj_prob.Rng.unit_float_into rng scores i
        done
  in
  Policy.scored ~name:"RAND" kernel

let prob ?lifetime () =
  let history = History.create () in
  let kernel =
    match lifetime with
    | None ->
      fun ~now:_ ~n ~uids ~values ~scores ->
        History.partner_counts_into history ~n ~uids ~values ~scores
    | Some lt ->
      let buf = ref [||] and remaining = remaining_into lt in
      fun ~now ~n ~uids ~values ~scores ->
        let rems = remaining buf ~now ~n ~uids ~values in
        History.partner_counts_into history ~n ~uids ~values ~scores;
        for i = 0 to n - 1 do
          if Array.unsafe_get rems i <= 0 then
            Array.unsafe_set scores i Float.neg_infinity
        done
  in
  Policy.scored ~name:"PROB" ~observe:(History.observe history) kernel

let life ~lifetime () =
  let history = History.create () in
  let buf = ref [||] and remaining = remaining_into lifetime in
  let kernel ~now ~n ~uids ~values ~scores =
    let rems = remaining buf ~now ~n ~uids ~values in
    History.partner_counts_into history ~n ~uids ~values ~scores;
    for i = 0 to n - 1 do
      let rem = Array.unsafe_get rems i in
      Array.unsafe_set scores i
        (if rem <= 0 then Float.neg_infinity
         else Array.unsafe_get scores i *. float_of_int rem)
    done
  in
  Policy.scored ~name:"LIFE" ~observe:(History.observe history) kernel

let prob_model ~partner_prob () =
  Policy.scored ~name:"PROB-model" (fun ~now:_ ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        scores.(i) <- partner_prob (Tuple.of_uid ~uid:uids.(i) ~value:values.(i))
      done)
