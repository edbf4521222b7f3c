open Ssj_stream
open Ssj_flow

(* Occurrence index: for each value, the ascending array of times at which
   the stream produced it.  Array + binary search keeps the per-tuple
   match-list extraction proportional to its output, which matters on
   WALK traces where values recur thousands of times. *)
let occurrence_index values =
  let tmp : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  for t = Array.length values - 1 downto 0 do
    let v = values.(t) in
    let old = Option.value ~default:[] (Hashtbl.find_opt tmp v) in
    Hashtbl.replace tmp v (t :: old)
  done;
  let idx : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter (fun v times -> Hashtbl.replace idx v (Array.of_list times)) tmp;
  idx

(* First index of [times] holding a value strictly greater than [time]. *)
let first_after times time =
  let lo = ref 0 and hi = ref (Array.length times) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if times.(mid) <= time then lo := mid + 1 else hi := mid
  done;
  !lo

let matches_after ?(band = 0) idx value time =
  if band = 0 then begin
    match Hashtbl.find_opt idx value with
    | None -> []
    | Some times ->
      let start = first_after times time in
      List.init (Array.length times - start) (fun i -> times.(start + i))
  end
  else begin
    (* Band semantics: any partner value within [value ± band] matches;
       each time step belongs to exactly one value bucket. *)
    let all = ref [] in
    let lo, hi = Band.range ~value ~band in
    for v = lo to hi do
      match Hashtbl.find_opt idx v with
      | None -> ()
      | Some times ->
        let start = first_after times time in
        for i = start to Array.length times - 1 do
          all := times.(i) :: !all
        done
    done;
    List.sort_uniq Int.compare !all
  end

let build_and_solve ?band ~trace ~capacity ~start ~curve () =
  let tlen = Trace.length trace in
  if capacity <= 0 || tlen = 0 then ([], 0)
  else begin
    let r_idx = occurrence_index trace.Trace.r_values in
    let s_idx = occurrence_index trace.Trace.s_values in
    (* Collect, per tuple, its future match times: an R tuple matches later
       S arrivals of the same value and vice versa. *)
    let tuple_matches =
      List.concat
        [
          List.init tlen (fun t ->
              (t, matches_after ?band s_idx trace.Trace.r_values.(t) t));
          List.init tlen (fun t ->
              (t, matches_after ?band r_idx trace.Trace.s_values.(t) t));
        ]
      |> List.filter (fun (_, ms) -> ms <> [])
    in
    let chain_nodes =
      List.fold_left (fun acc (_, ms) -> acc + List.length ms) 0 tuple_matches
    in
    (* Layout: 0 = source, 1 = sink, 2..2+tlen-1 = slot-chain nodes u_t,
       then tuple-chain nodes. *)
    let u t = 2 + t in
    let g = Mcmf.create (2 + tlen + chain_nodes) in
    let next_chain = ref (2 + tlen) in
    ignore (Mcmf.add_arc g ~src:0 ~dst:(u 0) ~cap:capacity ~cost:0.0);
    for t = 0 to tlen - 2 do
      ignore (Mcmf.add_arc g ~src:(u t) ~dst:(u (t + 1)) ~cap:capacity ~cost:0.0)
    done;
    ignore (Mcmf.add_arc g ~src:(u (tlen - 1)) ~dst:1 ~cap:capacity ~cost:0.0);
    List.iter
      (fun (arrival, match_times) ->
        (* Admission at the arrival time; each chain arc collects one
           match (cost −1 when counted, i.e. not during warm-up); each
           chain node can return the slot at its match time. *)
        let prev = ref (u arrival) in
        List.iter
          (fun m ->
            let c = !next_chain in
            incr next_chain;
            let cost = if m >= start then -1.0 else 0.0 in
            ignore (Mcmf.add_arc g ~src:!prev ~dst:c ~cap:1 ~cost);
            ignore (Mcmf.add_arc g ~src:c ~dst:(u m) ~cap:1 ~cost:0.0);
            prev := c)
          match_times)
      tuple_matches;
    if curve then begin
      let breakpoints, result =
        Mcmf.solve_curve g ~source:0 ~sink:1 ~target:capacity
      in
      (breakpoints, int_of_float (Float.round (-.result.Mcmf.cost)))
    end
    else begin
      let result = Mcmf.solve g ~source:0 ~sink:1 ~target:capacity in
      ([], int_of_float (Float.round (-.result.Mcmf.cost)))
    end
  end

let max_results_from ?band ~trace ~capacity ~start () =
  snd (build_and_solve ?band ~trace ~capacity ~start ~curve:false ())

let max_results ?band ~trace ~capacity () =
  max_results_from ?band ~trace ~capacity ~start:0 ()

let max_results_curve ?band ~trace ~capacities ~start () =
  match List.filter (fun c -> c > 0) capacities with
  | [] -> List.map (fun c -> (c, 0)) capacities
  | positive ->
    let cmax = List.fold_left max 1 positive in
    let breakpoints, _ =
      build_and_solve ?band ~trace ~capacity:cmax ~start ~curve:true ()
    in
    (* cost(k) interpolates linearly between successive-shortest-path
       breakpoints and is flat beyond the final flow value. *)
    let cost_at k =
      if k <= 0 then 0.0
      else begin
        let rec walk prev_f prev_c = function
          | [] -> prev_c
          | (f, c) :: rest ->
            if k >= f then walk f c rest
            else
              prev_c
              +. (float_of_int (k - prev_f)
                 *. ((c -. prev_c) /. float_of_int (f - prev_f)))
        in
        walk 0 0.0 breakpoints
      end
    in
    List.map
      (fun c -> (c, int_of_float (Float.round (-.cost_at c))))
      capacities

