(* Open-addressed int -> float table; the float twin of Itab.

   Values live in an unboxed float array, so lookups allocate nothing.
   Used by HEEB's trend-memoised score table, where the generic
   [(side * offset)] [Hashtbl] key costs a tuple allocation plus a
   polymorphic hash per candidate per step.  As in Itab, the bucket
   arrays use [min_int] as their empty-slot marker, so the key [min_int]
   itself lives in a separate cell and every int is a valid key. *)

type t = {
  mutable keys : int array;
  mutable vals : float array;
  mutable used : int;
  mutable mask : int;
  mutable min_bound : bool; (* is the key [min_int] bound? *)
  mutable min_val : float; (* its value, when bound *)
}

let empty_key = min_int

let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

let create ?(size = 16) () =
  let cap = pow2 (max 8 size) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0.0;
    used = 0;
    mask = cap - 1;
    min_bound = false;
    min_val = 0.0;
  }

let[@inline] hash k = (k * 0x2545F4914F6CDD1D) lsr 17

(* As in Itab: [probe] takes everything as arguments so the recursion
   compiles to direct static calls, not a per-lookup closure. *)
let rec probe keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = empty_key then i else probe keys mask k ((i + 1) land mask)

let slot t k = probe t.keys t.mask k (hash k land t.mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0.0;
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

let set t k v =
  if k = empty_key then begin
    t.min_bound <- true;
    t.min_val <- v
  end
  else begin
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then t.vals.(i) <- v
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.used <- t.used + 1;
      if 2 * t.used > t.mask then grow t
    end
  end
