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

(* Hand-rolled like {!Ssj_engine.Checkpoint}: the repo carries no JSON
   dependency, and the format is one flat object per file.  Strings are
   sanitised on write so a substring scan is enough to read them back. *)

let schema_version = 1

let sanitize s =
  String.map (fun c -> if c = '"' || c = '\n' || c = '\r' then '_' else c) s

let int_array_to_json a =
  "["
  ^ String.concat ", " (Array.to_list (Array.map string_of_int a))
  ^ "]"

let save ~check ~detail case ~filename =
  let oc = open_out filename in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"ssj_repro_schema\": %d, \"check\": \"%s\", \"policy\": \"%s\", \
         \"seed\": %d, \"capacity\": %d, \"band\": %d, \"window\": %s, \
         \"r\": %s, \"s\": %s, \"detail\": \"%s\"}\n"
        schema_version (sanitize check) (sanitize case.policy) case.seed
        case.capacity case.band
        (match case.window with None -> "null" | Some w -> string_of_int w)
        (int_array_to_json case.r_values)
        (int_array_to_json case.s_values)
        (sanitize detail))

let find_marker text marker =
  let mlen = String.length marker and tlen = String.length text in
  let rec find i =
    if i + mlen > tlen then None
    else if String.sub text i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  find 0

let int_field text field =
  match find_marker text (Printf.sprintf "\"%s\":" field) with
  | None -> None
  | Some start ->
    let tlen = String.length text in
    let start = ref start in
    while !start < tlen && text.[!start] = ' ' do incr start done;
    let stop = ref !start in
    if !stop < tlen && text.[!stop] = '-' then incr stop;
    while !stop < tlen && text.[!stop] >= '0' && text.[!stop] <= '9' do
      incr stop
    done;
    int_of_string_opt (String.sub text !start (!stop - !start))

let string_field text field =
  match find_marker text (Printf.sprintf "\"%s\": \"" field) with
  | None -> None
  | Some start -> (
    match String.index_from_opt text start '"' with
    | None -> None
    | Some stop -> Some (String.sub text start (stop - start)))

let int_array_field text field =
  match find_marker text (Printf.sprintf "\"%s\": [" field) with
  | None -> None
  | Some start -> (
    match String.index_from_opt text start ']' with
    | None -> None
    | Some stop ->
      let body = String.sub text start (stop - start) in
      let parts =
        String.split_on_char ',' body
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let ints = List.filter_map int_of_string_opt parts in
      if List.length ints = List.length parts then
        Some (Array.of_list ints)
      else None)

let null_or_int_field text field =
  match find_marker text (Printf.sprintf "\"%s\":" field) with
  | None -> None
  | Some start ->
    let tlen = String.length text in
    let start = ref start in
    while !start < tlen && text.[!start] = ' ' do incr start done;
    if !start + 4 <= tlen && String.sub text !start 4 = "null" then
      Some None
    else (
      match int_field text field with
      | Some v -> Some (Some v)
      | None -> None)

type repro = { case : t; check : string; detail : string }

let load ~filename =
  match open_in filename with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        match int_field text "ssj_repro_schema" with
        | None -> Error "not a repro file (no ssj_repro_schema field)"
        | Some v when v > schema_version ->
          Error
            (Printf.sprintf "repro schema %d newer than supported %d" v
               schema_version)
        | Some _ -> (
          match
            ( string_field text "check",
              string_field text "policy",
              int_field text "seed",
              int_field text "capacity",
              int_field text "band",
              null_or_int_field text "window",
              int_array_field text "r",
              int_array_field text "s" )
          with
          | ( Some check,
              Some policy,
              Some seed,
              Some capacity,
              Some band,
              Some window,
              Some r_values,
              Some s_values )
            when Array.length r_values = Array.length s_values ->
            let detail =
              match string_field text "detail" with Some d -> d | None -> ""
            in
            Ok
              {
                case =
                  { r_values; s_values; capacity; band; window; policy; seed };
                check;
                detail;
              }
          | _ -> Error "malformed repro file (missing or inconsistent fields)"))
