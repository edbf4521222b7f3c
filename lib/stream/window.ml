type t = { width : int }

let create ~width =
  if width < 0 then invalid_arg "Window.create: negative width";
  { width }

let width t = t.width
let inside t ~now tuple = tuple.Tuple.arrival >= now - t.width
let remaining_at t ~now ~arrival = arrival + t.width - now
let remaining_lifetime t ~now tuple = remaining_at t ~now ~arrival:tuple.Tuple.arrival
let unbounded = { width = max_int / 4 }
