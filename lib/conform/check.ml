type outcome =
  | Pass of { cases : int; note : string }
  | Fail of { detail : string; case : Case.t option }

type kind = Oracle | Law | Golden

let kind_to_string = function
  | Oracle -> "oracle"
  | Law -> "law"
  | Golden -> "golden"

type t = {
  name : string;
  kind : kind;
  fast : string;
  reference : string;
  run : seed:int -> count:int -> outcome;
  replay : (Case.t -> string option) option;
}

let make ~name ~kind ~fast ~reference run =
  { name; kind; fast; reference; run; replay = None }

let raised exn = "raised " ^ Printexc.to_string exn

(* [case], when given, rebuilds a failing case for the shrinker. *)
let sweep_cases ?case ~note ~count violation =
  let fail i detail =
    Fail
      {
        detail = Printf.sprintf "case %d: %s" i detail;
        case = Option.map (fun gen -> gen i) case;
      }
  in
  let rec from i =
    if i >= count then Pass { cases = count; note }
    else
      match violation i with
      | None -> from (i + 1)
      | Some detail -> fail i detail
      | exception exn -> fail i (raised exn)
  in
  from 0

let sweep ~note ~count violation = sweep_cases ~note ~count violation

(* The same comparison decides the sweep, the shrinker's predicate and
   `sjoin check --replay`; an exception is a violation of its case in
   both. *)
let of_violation ~name ~kind ~fast ~reference ~gen violation =
  let run ~seed ~count =
    sweep_cases ~case:(gen ~seed) ~note:(fast ^ " == " ^ reference) ~count (fun i ->
        violation (gen ~seed i))
  in
  let replay case =
    match violation case with v -> v | exception exn -> Some (raised exn)
  in
  { name; kind; fast; reference; run; replay = Some replay }
