(* Open-addressed int -> int table, linear probing, power-of-two buckets.

   Purpose-built for the simulation hot paths (history frequency counts,
   join-index multiplicity counts, per-value policy state): compared to
   [Hashtbl] it avoids the per-call [option] allocation of [find_opt], the
   generic hash function, and bucket-list chasing.  Keys are machine ints.
   The bucket arrays use [min_int] as their empty-slot marker, so the key
   [min_int] itself lives in a separate cell ([min_bound]/[min_val]) and
   every int is a valid key.  Entries are never physically removed by
   [set]/[add] — a counter that drops back to zero keeps its slot; only
   [decr] and [remove] free slots, by backward shift, so probing needs
   no tombstones.  Load factor is kept at or
   below 1/2. *)

type t = {
  mutable keys : int array; (* empty slots hold [empty_key] *)
  mutable vals : int array; (* meaningful only where [keys] is not empty *)
  mutable used : int; (* occupied slots *)
  mutable mask : int; (* Array.length keys - 1, a power of two minus one *)
  mutable min_bound : bool; (* is the key [min_int] bound? *)
  mutable min_val : int; (* its value, when bound *)
}

let empty_key = min_int

let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

let create ?(size = 16) () =
  let cap = pow2 (max 8 size) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    used = 0;
    mask = cap - 1;
    min_bound = false;
    min_val = 0;
  }

(* Fibonacci-style multiplicative mix: spreads dense key ranges (values
   clustered around a trend, consecutive uids) across the buckets. *)
let[@inline] hash k = (k * 0x2545F4914F6CDD1D) lsr 17

(* Index of [k]'s slot, or of the empty slot where it would be inserted.
   [probe] takes everything as arguments so the recursion compiles to
   direct static calls — a local [let rec] capturing [keys]/[mask] would
   allocate a closure per lookup, and lookups are the hot path. *)
let rec probe keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = empty_key then i else probe keys mask k ((i + 1) land mask)

let slot t k = probe t.keys t.mask k (hash k land t.mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let j = slot t k in
        t.keys.(j) <- k;
        t.vals.(j) <- old_vals.(i)
      end)
    old_keys

(* Probing for [min_int] stops at the first empty slot, whose key equals
   [min_int]: the one extra compare on a hit sends it to its own cell. *)
let find_default t k d =
  let i = slot t k in
  if Array.unsafe_get t.keys i <> k then d
  else if k <> empty_key then Array.unsafe_get t.vals i
  else if t.min_bound then t.min_val
  else d

let mem t k =
  if k = empty_key then t.min_bound else Array.unsafe_get t.keys (slot t k) = k

(* Bind [k] (not [min_int]) to [v] in a fresh slot [i]. *)
let insert_at t i k v =
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.used <- t.used + 1;
  if 2 * t.used > t.mask then grow t

let set t k v =
  if k = empty_key then begin
    t.min_bound <- true;
    t.min_val <- v
  end
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then t.vals.(i) <- v else insert_at t i k v

let add t k delta =
  if k = empty_key then begin
    t.min_val <- (if t.min_bound then t.min_val + delta else delta);
    t.min_bound <- true
  end
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then t.vals.(i) <- t.vals.(i) + delta
    else insert_at t i k delta

(* [add t k (-1)], but physically freeing the slot when the counter hits
   zero.  Keeps tables whose keys churn (the join index's value counts
   track a moving trend) at working-set size instead of accumulating
   every key ever seen.  Freeing under linear probing uses backward-shift
   deletion: walk the probe chain after the hole and pull back any entry
   whose home slot precedes the hole, so no tombstones are needed. *)
(* Free occupied slot [i] by backward-shift deletion: walk the probe
   chain after the hole and pull back any entry whose home slot precedes
   the hole, so no tombstones are needed. *)
let delete_at t i =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  t.used <- t.used - 1;
  let hole = ref i in
  let j = ref ((i + 1) land mask) in
  let continue = ref true in
  while !continue do
    let kj = Array.unsafe_get keys !j in
    if kj = empty_key then continue := false
    else begin
      let home = hash kj land mask in
      (* The entry at [j] may move back into the hole iff probing from
         its home reaches the hole no later than [j]. *)
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set keys !hole kj;
        Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    end
  done;
  Array.unsafe_set keys !hole empty_key

(* [add t k (-1)], but physically freeing the slot when the counter hits
   zero.  Keeps tables whose keys churn (the join index's value counts
   track a moving trend) at working-set size instead of accumulating
   every key ever seen. *)
let decr t k =
  if k = empty_key then begin
    let v = if t.min_bound then t.min_val - 1 else -1 in
    t.min_val <- v;
    t.min_bound <- v <> 0
  end
  else begin
    let i = slot t k in
    if Array.unsafe_get t.keys i <> k then insert_at t i k (-1)
    else begin
      let v = Array.unsafe_get t.vals i - 1 in
      if v <> 0 then Array.unsafe_set t.vals i v else delete_at t i
    end
  end

let remove t k =
  if k = empty_key then t.min_bound <- false
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then delete_at t i

let iter f t =
  Array.iteri (fun i k -> if k <> empty_key then f k t.vals.(i)) t.keys;
  if t.min_bound then f empty_key t.min_val
