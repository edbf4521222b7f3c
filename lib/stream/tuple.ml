type side = R | S

let partner = function R -> S | S -> R
let side_to_string = function R -> "R" | S -> "S"

type t = { side : side; value : int; arrival : int; uid : int }

let make ~side ~value ~arrival =
  let uid = (2 * arrival) + (match side with R -> 0 | S -> 1) in
  { side; value; arrival; uid }

let of_uid ~uid ~value =
  { side = (if uid land 1 = 0 then R else S); value; arrival = uid asr 1; uid }

let compare a b = Int.compare a.uid b.uid
let equal a b = a.uid = b.uid

let pp ppf t =
  Format.fprintf ppf "%s@%d(v=%d)" (side_to_string t.side) t.arrival t.value
