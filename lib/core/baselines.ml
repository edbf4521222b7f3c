open Ssj_stream

(* Remaining-lifetime oracle for the baseline policies.  First-order
   representations of the two shipped shapes let the hot scoring loops
   below inline the death test (one compare per candidate) instead of
   paying a closure call per candidate per step; [Fn] keeps the fully
   general form available. *)
type lifetime =
  | Trend of { r_add : int; s_add : int; speed : int }
      (** Linear-trend streams: remaining = (value + add_side)/speed − now
          (see {!Ssj_workload.Config.lifetime} for the constants). *)
  | Of_window of Window.t
      (** Sliding window: {!Ssj_stream.Window.remaining_lifetime}. *)
  | Fn of (now:int -> Tuple.t -> int)

(* [remaining] on the buffer representation; reconstructs a tuple only
   for the fully general [Fn] case. *)
let remaining_uv lt ~now ~uid ~value =
  match lt with
  | Trend { r_add; s_add; speed } ->
    ((value + (if uid land 1 = 0 then r_add else s_add)) / speed) - now
  | Of_window w -> Window.remaining_at w ~now ~arrival:(uid asr 1)
  | Fn f -> f ~now (Tuple.of_uid ~uid ~value)

let remaining lt ~now (t : Tuple.t) =
  remaining_uv lt ~now ~uid:t.uid ~value:t.value

(* History frequency tracker: counts of each value seen per side.  Backed
   by dense counter arrays — stream values follow a trend, so the
   per-candidate count lookup (the per-step hot path of PROB and LIFE)
   stays on a few cache-hot lines instead of hashing across a table that
   accumulates every value ever seen. *)
module History = struct
  type t = { r_counts : Ssj_prob.Dtab.t; s_counts : Ssj_prob.Dtab.t }

  let create () =
    { r_counts = Ssj_prob.Dtab.create (); s_counts = Ssj_prob.Dtab.create () }

  let table t = function
    | Tuple.R -> t.r_counts
    | Tuple.S -> t.s_counts

  let observe t ~(r : Tuple.t) ~(s : Tuple.t) =
    Ssj_prob.Dtab.add (table t r.side) r.value 1;
    Ssj_prob.Dtab.add (table t s.side) s.value 1
end

(* The candidates' remaining lifetimes, into a per-policy int scratch
   (one specialised loop per step, so the scoring loops below test
   death with one integer compare).  The common [Trend] lifetime with
   [speed = 1] skips the division. *)
let remaining_into lt (buf : int array ref) ~now ~n ~uids ~values =
  if Array.length !buf < n then buf := Array.make (max 16 (2 * n)) 0;
  let rems = !buf in
  (match lt with
  | Trend { r_add; s_add; speed = 1 } ->
    for i = 0 to n - 1 do
      Array.unsafe_set rems i
        (Array.unsafe_get values i
        + (if Array.unsafe_get uids i land 1 = 0 then r_add else s_add)
        - now)
    done
  | lt ->
    for i = 0 to n - 1 do
      Array.unsafe_set rems i
        (remaining_uv lt ~now ~uid:(Array.unsafe_get uids i)
           ~value:(Array.unsafe_get values i))
    done);
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
      let buf = ref [||] in
      fun ~now ~n ~uids ~values ~scores ->
        let rems = remaining_into lt buf ~now ~n ~uids ~values in
        for i = 0 to n - 1 do
          if Array.unsafe_get rems i <= 0 then
            Array.unsafe_set scores i Float.neg_infinity
          else Ssj_prob.Rng.unit_float_into rng scores i
        done
  in
  Policy.scored ~name:"RAND" kernel

(* PROB and LIFE count a candidate against the *partner* side's history:
   R candidates (uid bit 0) against the S counts and vice versa. *)
let prob ?lifetime () =
  let history = History.create () in
  let r_tab = history.History.s_counts and s_tab = history.History.r_counts in
  let kernel =
    match lifetime with
    | None ->
      fun ~now:_ ~n ~uids ~values ~scores ->
        for i = 0 to n - 1 do
          Array.unsafe_set scores i
            (float_of_int
               (Ssj_prob.Dtab.get
                  (if Array.unsafe_get uids i land 1 = 0 then r_tab else s_tab)
                  (Array.unsafe_get values i)))
        done
    | Some lt ->
      let buf = ref [||] in
      fun ~now ~n ~uids ~values ~scores ->
        let rems = remaining_into lt buf ~now ~n ~uids ~values in
        for i = 0 to n - 1 do
          Array.unsafe_set scores i
            (if Array.unsafe_get rems i <= 0 then Float.neg_infinity
             else
               float_of_int
                 (Ssj_prob.Dtab.get
                    (if Array.unsafe_get uids i land 1 = 0 then r_tab
                     else s_tab)
                    (Array.unsafe_get values i)))
        done
  in
  Policy.scored ~name:"PROB" ~observe:(History.observe history) kernel

let life ~lifetime () =
  let history = History.create () in
  let r_tab = history.History.s_counts and s_tab = history.History.r_counts in
  let buf = ref [||] in
  let kernel ~now ~n ~uids ~values ~scores =
    let rems = remaining_into lifetime buf ~now ~n ~uids ~values in
    for i = 0 to n - 1 do
      let rem = Array.unsafe_get rems i in
      Array.unsafe_set scores i
        (if rem <= 0 then Float.neg_infinity
         else
           float_of_int
             (Ssj_prob.Dtab.get
                (if Array.unsafe_get uids i land 1 = 0 then r_tab else s_tab)
                (Array.unsafe_get values i))
           *. float_of_int rem)
    done
  in
  Policy.scored ~name:"LIFE" ~observe:(History.observe history) kernel

let prob_model ~partner_prob () =
  Policy.scored ~name:"PROB-model" (fun ~now:_ ~n ~uids ~values ~scores ->
      for i = 0 to n - 1 do
        scores.(i) <- partner_prob (Tuple.of_uid ~uid:uids.(i) ~value:values.(i))
      done)
