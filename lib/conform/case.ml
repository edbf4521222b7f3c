open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_workload

(* A conformance case is everything needed to replay one simulator
   comparison deterministically: both value scripts, the cache size,
   the join semantics (band, optional window), and the policy as a
   (name, seed) pair — policies are stateful, so a case stores the
   recipe, not the instance. *)
type t = {
  r_values : int array;
  s_values : int array;
  capacity : int;
  band : int;
  window : int option;
  policy : string;
  seed : int;
}

let length case = Array.length case.r_values
let trace case = Trace.of_values ~r:case.r_values ~s:case.s_values

let window case =
  match case.window with
  | None -> None
  | Some width -> Some (Window.create ~width)

(* Conformance runs warm up like the paper's sweeps (4·capacity) but
   never discount more than half of a tiny trace away, so the counted
   tally stays a meaningful signal on shrunk cases. *)
let warmup case = min (length case / 2) (4 * case.capacity)

let policy_names = [ "RAND"; "PROB"; "LIFE"; "HEEB" ]
let tower = Config.tower ()

let policy case =
  match case.policy with
  | "RAND" -> Baselines.rand ~rng:(Rng.create case.seed) ()
  | "PROB" -> Baselines.prob ()
  | "LIFE" ->
    let lifetime =
      match window case with
      | Some w -> Baselines.Of_window w
      | None -> Config.lifetime tower
    in
    Baselines.life ~lifetime ()
  | "HEEB" ->
    let r, s = Config.predictors tower in
    Heeb.joining ~r ~s
      ~l:(Lfun.exp_ ~alpha:(Config.alpha tower))
      ~mode:`Direct ()
  | other -> invalid_arg (Printf.sprintf "Case.policy: unknown policy %S" other)

let pp ppf case =
  Format.fprintf ppf "%s cap=%d band=%d window=%s steps=%d seed=%d"
    case.policy case.capacity case.band
    (match case.window with None -> "-" | Some w -> string_of_int w)
    (length case) case.seed

let to_string case = Format.asprintf "%a" pp case

(* --- repro JSON ---------------------------------------------------- *)

module Json = Ssj_obs.Json

let schema_version = 1

let ints a = Json.Array (Array.to_list (Array.map Json.int a))

let save ~check ~detail case ~filename =
  let json =
    Json.Object
      [
        ("ssj_repro_schema", Json.int schema_version);
        ("check", Json.String check);
        ("policy", Json.String case.policy);
        ("seed", Json.int case.seed);
        ("capacity", Json.int case.capacity);
        ("band", Json.int case.band);
        ("window", Option.fold ~none:Json.Null ~some:Json.int case.window);
        ("r", ints case.r_values);
        ("s", ints case.s_values);
        ("detail", Json.String detail);
      ]
  in
  match
    Out_channel.with_open_text filename (fun oc ->
        output_string oc (Json.to_string json ^ "\n"))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

type repro = { case : t; check : string; detail : string }

let load ~filename =
  let ( let* ) = Result.bind in
  let* json = Json.of_file filename in
  let field key as_ = Option.bind (Json.member key json) as_ in
  let required key as_ =
    Option.to_result (field key as_)
      ~none:(Printf.sprintf "malformed repro file (field %S)" key)
  in
  let int_array j =
    Option.bind (Json.as_list j) (fun items ->
        let ints = List.filter_map Json.as_int items in
        if List.length ints = List.length items then Some (Array.of_list ints)
        else None)
  in
  let null_or_int = function
    | Json.Null -> Some None
    | j -> Option.map Option.some (Json.as_int j)
  in
  let* schema =
    Option.to_result (field "ssj_repro_schema" Json.as_int)
      ~none:"not a repro file (no ssj_repro_schema field)"
  in
  let* () =
    if schema <= schema_version then Ok ()
    else
      Error
        (Printf.sprintf "repro schema %d newer than supported %d" schema
           schema_version)
  in
  let* check = required "check" Json.as_string in
  let* policy = required "policy" Json.as_string in
  let* seed = required "seed" Json.as_int in
  let* capacity = required "capacity" Json.as_int in
  let* band = required "band" Json.as_int in
  let* window = required "window" null_or_int in
  let* r_values = required "r" int_array in
  let* s_values = required "s" int_array in
  if Array.length r_values <> Array.length s_values then
    Error "malformed repro file (r and s lengths differ)"
  else
    let detail = Option.value ~default:"" (field "detail" Json.as_string) in
    Ok
      {
        case = { r_values; s_values; capacity; band; window; policy; seed };
        check;
        detail;
      }
