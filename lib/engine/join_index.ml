open Ssj_stream

(* [counted.(uid) = 1] iff the tuple is in the cache AND inside the
   window, i.e. contributing to the value-count tables.  One flat array
   keeps the per-step diff down to a single load/store per tuple. *)
type t = {
  band : int;
  window : Window.t option;
  counts_r : Ssj_prob.Itab.t; (* value -> # counted R tuples *)
  counts_s : Ssj_prob.Itab.t;
  mutable counted : int array;
  expiry : Tuple.t Queue.t; (* counted tuples in arrival order; window only *)
}

let create ?window ?(band = 0) ~length () =
  if band < 0 then invalid_arg "Join_index.create: negative band";
  (* uid = 2·arrival + side bit, so a trace of [length] steps stays below
     2·length + 2. *)
  let cap = max 64 ((2 * length) + 2) in
  {
    band;
    window;
    counts_r = Ssj_prob.Itab.create ~size:256 ();
    counts_s = Ssj_prob.Itab.create ~size:256 ();
    counted = Array.make cap 0;
    expiry = Queue.create ();
  }

let counts t = function Tuple.R -> t.counts_r | Tuple.S -> t.counts_s
let counts_bit t bit = if bit = 0 then t.counts_r else t.counts_s

(* Conformance fault hook: shifts the band probe window by a constant,
   turning the O(band) counting path into an off-by-[skew] fast-path bug
   on demand.  Zero (the default) is the identity; only the conformance
   suite and `sjoin check --inject` ever set it. *)
let probe_skew = ref 0

module Testhook = struct
  let set_band_probe_skew n = probe_skew := n
end

let grow t uid =
  if uid < 0 then invalid_arg "Join_index: negative uid";
  let cap = Array.length t.counted in
  let cap' = max (uid + 1) (2 * cap) in
  let counted = Array.make cap' 0 in
  Array.blit t.counted 0 counted 0 cap;
  t.counted <- counted

let rec expire t w ~now =
  if not (Queue.is_empty t.expiry) then begin
    let (tuple : Tuple.t) = Queue.peek t.expiry in
    if not (Window.inside w ~now tuple) then begin
      ignore (Queue.pop t.expiry);
      (let st = t.counted in
       if Array.unsafe_get st tuple.uid = 1 then begin
         Array.unsafe_set st tuple.uid 0;
         Ssj_prob.Itab.decr (counts t tuple.side) tuple.value
       end);
      expire t w ~now
    end
  end

let matches t ~now (arrival : Tuple.t) =
  (match t.window with None -> () | Some w -> expire t w ~now);
  let tbl = counts t (Tuple.partner arrival.side) in
  if t.band = 0 then Ssj_prob.Itab.find_default tbl arrival.value 0
  else begin
    let skew = !probe_skew in
    let acc = ref 0 in
    for v = arrival.value - t.band + skew to arrival.value + t.band + skew do
      acc := !acc + Ssj_prob.Itab.find_default tbl v 0
    done;
    !acc
  end

(* O(diff) maintenance from the step's diff: [insert] a newly cached
   arrival, [remove_id] an evicted cache member.  Arrivals are inserted
   in step order, so the expiry queue stays sorted by arrival time. *)
let insert t (tuple : Tuple.t) =
  let uid = tuple.uid in
  if uid < 0 || uid >= Array.length t.counted then grow t uid;
  Array.unsafe_set t.counted uid 1;
  Ssj_prob.Itab.add (counts t tuple.side) tuple.value 1;
  match t.window with Some _ -> Queue.push tuple t.expiry | None -> ()

let remove_id t ~uid ~value =
  let st = t.counted in
  (* Uncount only if still counted: window expiry may already have
     cleared the flag while the tuple sat in the cache. *)
  if uid >= 0 && uid < Array.length st && Array.unsafe_get st uid = 1 then begin
    Array.unsafe_set st uid 0;
    Ssj_prob.Itab.decr (counts_bit t (uid land 1)) value
  end
