type t = {
  reference : int array;
  trace : Trace.t;
  codes : (int * int, int) Hashtbl.t;
  pairs : (int, int * int) Hashtbl.t;
  mutable next_code : int;
}

let alloc t pair =
  match Hashtbl.find_opt t.codes pair with
  | Some c -> c
  | None ->
    let c = t.next_code in
    t.next_code <- c + 1;
    Hashtbl.add t.codes pair c;
    Hashtbl.add t.pairs c pair;
    c

let transform reference =
  let n = Array.length reference in
  let t =
    {
      reference = Array.copy reference;
      trace = Trace.of_values ~r:(Array.make n 0) ~s:(Array.make n 0);
      codes = Hashtbl.create 64;
      pairs = Hashtbl.create 64;
      next_code = 0;
    }
  in
  let occurrences = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let v = reference.(i) in
    let seen =
      match Hashtbl.find_opt occurrences v with Some k -> k | None -> 0
    in
    Hashtbl.replace occurrences v (seen + 1);
    (* This is the (seen+1)-th occurrence of v: R' gets (v, seen),
       S' gets (v, seen + 1). *)
    t.trace.Trace.r_values.(i) <- alloc t (v, seen);
    t.trace.Trace.s_values.(i) <- alloc t (v, seen + 1)
  done;
  t

let trace t = t.trace
let decode t code = Hashtbl.find t.pairs code
let reference t = t.reference
