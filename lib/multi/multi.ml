open Ssj_model
open Ssj_core

type tuple = { stream : int; value : int; arrival : int; uid : int }

let make_tuple ~streams ~stream ~value ~arrival =
  if stream < 0 || stream >= streams then invalid_arg "Multi.make_tuple: stream";
  { stream; value; arrival; uid = (arrival * streams) + stream }

type queries = (int * int) list

let normalize_query (i, j) = if i <= j then (i, j) else (j, i)

let validate_queries ~streams queries =
  let rec check seen = function
    | [] -> Ok ()
    | q :: rest ->
      let i, j = normalize_query q in
      if i = j then Error (Printf.sprintf "self-join on stream %d" i)
      else if i < 0 || j >= streams then
        Error (Printf.sprintf "query (%d, %d) outside 0..%d" i j (streams - 1))
      else if List.mem (i, j) seen then
        Error (Printf.sprintf "duplicate query (%d, %d)" i j)
      else check ((i, j) :: seen) rest
  in
  check [] queries

let partners queries stream =
  List.filter_map
    (fun q ->
      let i, j = normalize_query q in
      if i = stream then Some j else if j = stream then Some i else None)
    queries
  |> List.sort_uniq Int.compare

type policy = {
  name : string;
  select :
    now:int -> cached:tuple list -> arrivals:tuple list -> capacity:int -> tuple list;
}

let keep_top ~capacity ~score candidates =
  if capacity <= 0 then []
  else begin
    let ordered =
      List.sort
        (fun (sa, (ta : tuple)) (sb, tb) ->
          match Float.compare sb sa with
          | 0 -> Int.compare tb.uid ta.uid (* newer first *)
          | c -> c)
        (List.map (fun t -> (score t, t)) candidates)
    in
    List.filteri (fun i _ -> i < capacity) ordered |> List.map snd
  end

let rand ~rng =
  {
    name = "RAND";
    select =
      (fun ~now:_ ~cached ~arrivals ~capacity ->
        keep_top ~capacity
          ~score:(fun _ -> Ssj_prob.Rng.float rng 1.0)
          (cached @ arrivals));
  }

let prob () =
  (* counts.(handled lazily): per stream, per value frequency. *)
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let bump stream value =
    let key = (stream, value) in
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let freq stream value =
    Option.value ~default:0 (Hashtbl.find_opt counts (stream, value))
  in
  {
    name = "PROB";
    select =
      (fun ~now:_ ~cached ~arrivals ~capacity ->
        List.iter (fun t -> bump t.stream t.value) arrivals;
        (* Without query knowledge PROB sums frequencies over every other
           stream — the natural generalisation of its two-stream form. *)
        let all_streams =
          List.sort_uniq Int.compare
            (List.map (fun t -> t.stream) (cached @ arrivals))
        in
        let score t =
          List.fold_left
            (fun acc s ->
              if s = t.stream then acc else acc +. float_of_int (freq s t.value))
            0.0 all_streams
        in
        keep_top ~capacity ~score (cached @ arrivals));
  }

let heeb ?name ~predictors ~l ~queries () =
  let m = Array.length predictors in
  (match validate_queries ~streams:m queries with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Multi.heeb: " ^ msg));
  let preds = Array.copy predictors in
  let partner_table = Array.init m (fun i -> partners queries i) in
  let name = Option.value ~default:"HEEB-multi" name in
  {
    name;
    select =
      (fun ~now:_ ~cached ~arrivals ~capacity ->
        List.iter
          (fun t -> preds.(t.stream) <- preds.(t.stream).Predictor.observe t.value)
          arrivals;
        let score t =
          List.fold_left
            (fun acc j ->
              acc +. Hvalue.joining ~partner:preds.(j) ~l ~value:t.value)
            0.0 partner_table.(t.stream)
        in
        keep_top ~capacity ~score (cached @ arrivals));
  }

type result = { total_results : int; counted_results : int }

let run ~traces ~queries ~policy ~capacity ?(warmup = 0) () =
  let m = Array.length traces in
  if m = 0 then invalid_arg "Multi.run: no streams";
  let tlen = Array.length traces.(0) in
  Array.iter
    (fun tr ->
      if Array.length tr <> tlen then invalid_arg "Multi.run: ragged traces")
    traces;
  (match validate_queries ~streams:m queries with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Multi.run: " ^ msg));
  let joined = Array.make_matrix m m false in
  List.iter
    (fun q ->
      let i, j = normalize_query q in
      joined.(i).(j) <- true;
      joined.(j).(i) <- true)
    queries;
  let cache = ref [] in
  let total = ref 0 and counted = ref 0 in
  for now = 0 to tlen - 1 do
    let arrivals =
      List.init m (fun stream ->
          make_tuple ~streams:m ~stream ~value:traces.(stream).(now)
            ~arrival:now)
    in
    let produced =
      List.fold_left
        (fun acc (a : tuple) ->
          List.fold_left
            (fun acc (c : tuple) ->
              if joined.(a.stream).(c.stream) && a.value = c.value then acc + 1
              else acc)
            acc !cache)
        0 arrivals
    in
    total := !total + produced;
    if now >= warmup then counted := !counted + produced;
    let selection = policy.select ~now ~cached:!cache ~arrivals ~capacity in
    let candidates = !cache @ arrivals in
    if List.length selection > capacity then
      failwith "Multi.run: selection exceeds capacity";
    if
      not
        (List.for_all
           (fun t -> List.exists (fun c -> c.uid = t.uid) candidates)
           selection)
    then failwith "Multi.run: selection not drawn from candidates";
    let uids = List.sort compare (List.map (fun t -> t.uid) selection) in
    let rec dup = function
      | a :: (b :: _ as rest) -> a = b || dup rest
      | [ _ ] | [] -> false
    in
    if dup uids then failwith "Multi.run: duplicate selection";
    cache := selection
  done;
  { total_results = !total; counted_results = !counted }
