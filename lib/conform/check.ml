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

(* Wrap a per-case violation function into both the [run] scan and the
   [replay] hook: the same comparison decides the sweep, the shrinker's
   predicate and `sjoin check --replay`.  Exceptions (e.g. a selection
   failing validation) count as violations attributed to the case. *)
let guarded violation case =
  match violation case with
  | v -> v
  | exception exn -> Some (Printexc.to_string exn)

let of_violation ~name ~kind ~fast ~reference ~gen violation =
  let violation = guarded violation in
  let run ~seed ~count =
    let rec scan i =
      if i >= count then Pass { cases = count; note = fast ^ " == " ^ reference }
      else
        let case = gen ~seed i in
        match violation case with
        | None -> scan (i + 1)
        | Some detail -> Fail { detail; case = Some case }
    in
    scan 0
  in
  { name; kind; fast; reference; run; replay = Some violation }
