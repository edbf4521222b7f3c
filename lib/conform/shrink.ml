(* ddmin-flavoured counterexample minimisation over {!Case.t}.

   The predicate decides "still failing"; every transformation below is
   value-preserving on the case's structure (paired trace steps are
   removed together, so the one-R-one-S-per-step shape the simulator
   replays is kept).  Passes run to a fixpoint within an explicit
   eval/wall budget — shrinking is best-effort, never the bottleneck. *)

type budget = { max_evals : int; max_seconds : float }

let default_budget = { max_evals = 4000; max_seconds = 10.0 }

type stats = {
  evals : int;
  seconds : float;
  from_steps : int;
  to_steps : int;
}

type state = {
  budget : budget;
  started : float;
  mutable evals : int;
  still_fails : Case.t -> bool;
}

let exhausted st =
  st.evals >= st.budget.max_evals
  || Unix.gettimeofday () -. st.started >= st.budget.max_seconds

(* Accept a candidate iff it actually differs, still fails and budget
   remains; returns [None] when rejected (or out of budget) so callers
   keep the previous best.  The no-change guard keeps the fixpoint loop
   from reporting phantom progress forever. *)
let attempt ?current st case =
  if exhausted st || current = Some case then None
  else begin
    st.evals <- st.evals + 1;
    if st.still_fails case then Some case else None
  end

let drop_span case start len =
  let cut a =
    Array.append (Array.sub a 0 start)
      (Array.sub a (start + len) (Array.length a - start - len))
  in
  {
    case with
    Case.r_values = cut case.Case.r_values;
    s_values = cut case.Case.s_values;
  }

(* Remove paired chunks, halving the chunk size: classic ddmin on the
   time axis.  Not advancing [i] after a hit retries the same position
   (the next chunk slid into it). *)
let shrink_trace st case =
  let best = ref case and progress = ref false in
  let len = ref (max 1 (Case.length case / 2)) in
  while !len >= 1 && not (exhausted st) do
    let i = ref 0 in
    while !i + !len <= Case.length !best && not (exhausted st) do
      match attempt st (drop_span !best !i !len) with
      | Some c ->
        best := c;
        progress := true
      | None -> i := !i + !len
    done;
    len := if !len = 1 then 0 else !len / 2
  done;
  (!best, !progress)

let try_each st case candidates =
  List.fold_left
    (fun (best, progress) make ->
      match attempt ~current:best st (make best) with
      | Some c -> (c, true)
      | None -> (best, progress))
    (case, false) candidates

let shrink_params st case =
  try_each st case
    [
      (fun c -> { c with Case.capacity = 1 });
      (fun c -> { c with Case.capacity = max 1 (c.Case.capacity / 2) });
      (fun c -> { c with Case.capacity = max 1 (c.Case.capacity - 1) });
      (fun c -> { c with Case.band = 0 });
      (fun c -> { c with Case.band = max 0 (c.Case.band / 2) });
      (fun c -> { c with Case.window = None });
      (fun c ->
        match c.Case.window with
        | Some w when w > 1 -> { c with Case.window = Some (w / 2) }
        | _ -> c);
    ]

(* Value-domain shrinking: zero individual entries, then halve the
   whole domain.  Zeroing runs right-to-left so surviving structure
   stays at the front of the (already time-shrunk) trace. *)
let zero_values st case =
  let progress = ref false in
  let best = ref case in
  let pass select replace =
    let n = Case.length !best in
    for i = n - 1 downto 0 do
      if not (exhausted st) then begin
        let values = select !best in
        if i < Array.length values && values.(i) <> 0 then begin
          let values' = Array.copy values in
          values'.(i) <- 0;
          match attempt st (replace !best values') with
          | Some c ->
            best := c;
            progress := true
          | None -> ()
        end
      end
    done
  in
  pass
    (fun c -> c.Case.r_values)
    (fun c v -> { c with Case.r_values = v });
  pass
    (fun c -> c.Case.s_values)
    (fun c v -> { c with Case.s_values = v });
  let halve c =
    {
      c with
      Case.r_values = Array.map (fun v -> v / 2) c.Case.r_values;
      s_values = Array.map (fun v -> v / 2) c.Case.s_values;
    }
  in
  (match attempt ~current:!best st (halve !best) with
  | Some c ->
    best := c;
    progress := true
  | None -> ());
  (!best, !progress)

let minimize ~still_fails case =
  let st =
    {
      budget = default_budget;
      started = Unix.gettimeofday ();
      evals = 0;
      still_fails;
    }
  in
  let best = ref case in
  let continue = ref true in
  while !continue && not (exhausted st) do
    let c1, p1 = shrink_trace st !best in
    let c2, p2 = shrink_params st c1 in
    let c3, p3 = zero_values st c2 in
    best := c3;
    continue := p1 || p2 || p3
  done;
  ( !best,
    {
      evals = st.evals;
      seconds = Unix.gettimeofday () -. st.started;
      from_steps = Case.length case;
      to_steps = Case.length !best;
    } )
