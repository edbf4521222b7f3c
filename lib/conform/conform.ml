(* The conformance driver: assemble the registry, run it, shrink what
   fails, and write replayable repros. *)

type report = {
  check : Check.t;
  outcome : Check.outcome;
  shrunk : (Case.t * Shrink.stats) option;
  repro_file : (string, string) result option;
  seconds : float;
}

let all_checks ?artifact ?(golden = true) () =
  Oracles.all @ Laws.all
  @ (if golden then Golden.checks ?artifact () else [])

let matches ?filter (check : Check.t) =
  match filter with
  | None -> true
  | Some sub ->
    let name = check.Check.name in
    let nlen = String.length name and slen = String.length sub in
    let rec scan i =
      i + slen <= nlen && (String.sub name i slen = sub || scan (i + 1))
    in
    scan 0

let repro_filename ~dir (check : Check.t) =
  let slug =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '-')
      check.Check.name
  in
  Filename.concat dir (Printf.sprintf "repro-%s.json" slug)

(* Shrink a failing case with the check's own replay as the predicate
   and persist the minimized repro. *)
let shrink_and_save ?repro_dir (check : Check.t) case =
  match check.Check.replay with
  | None -> (None, None)
  | Some replay ->
    let still_fails c = replay c <> None in
    (* Only shrink genuinely replayable failures; a flaky replay (the
       original case no longer failing) is reported unshrunk. *)
    if not (still_fails case) then (None, None)
    else begin
      let small, stats = Shrink.minimize ~still_fails case in
      let detail = Option.value (replay small) ~default:"(vanished)" in
      let file =
        match repro_dir with
        | None -> None
        | Some dir ->
          let filename = repro_filename ~dir check in
          Some
            (Result.map
               (fun () -> filename)
               (Case.save ~check:check.Check.name ~detail small ~filename))
      in
      (Some (small, stats), file)
    end

let pp_outcome out (r : report) =
  let kind = Check.kind_to_string r.check.Check.kind in
  (match r.outcome with
  | Check.Pass { cases; note } ->
    Format.fprintf out "[PASS] %-40s %-6s %4d cases  %.2fs  %s@."
      r.check.Check.name kind cases r.seconds note
  | Check.Fail { detail; case = _ } ->
    Format.fprintf out "[FAIL] %-40s %-6s %.2fs@." r.check.Check.name kind
      r.seconds;
    Format.fprintf out "       fast:      %s@." r.check.Check.fast;
    Format.fprintf out "       reference: %s@." r.check.Check.reference;
    Format.fprintf out "       %s@." detail);
  (match r.shrunk with
  | Some (case, stats) ->
    Format.fprintf out
      "       shrunk %d -> %d steps (%d evals, %.2fs): %s@."
      stats.Shrink.from_steps stats.Shrink.to_steps stats.Shrink.evals
      stats.Shrink.seconds (Case.to_string case)
  | None -> ());
  match r.repro_file with
  | Some (Ok file) -> Format.fprintf out "       repro written to %s@." file
  | Some (Error msg) -> Format.fprintf out "       repro not written: %s@." msg
  | None -> ()

let run_checks ?filter ?(seed = 42) ?(count = 100) ?repro_dir
    ?(out = Format.std_formatter) checks =
  let selected = List.filter (matches ?filter) checks in
  let reports =
    List.map
      (fun (check : Check.t) ->
        let t0 = Unix.gettimeofday () in
        let outcome =
          try check.Check.run ~seed ~count
          with exn ->
            Check.Fail
              {
                detail =
                  Printf.sprintf "check raised %s" (Printexc.to_string exn);
                case = None;
              }
        in
        let seconds = Unix.gettimeofday () -. t0 in
        let shrunk, repro_file =
          match outcome with
          | Check.Fail { case = Some case; _ } ->
            shrink_and_save ?repro_dir check case
          | _ -> (None, None)
        in
        let r = { check; outcome; shrunk; repro_file; seconds } in
        pp_outcome out r;
        r)
      selected
  in
  let failed =
    List.length
      (List.filter
         (fun r -> match r.outcome with Check.Fail _ -> true | _ -> false)
         reports)
  in
  Format.fprintf out "%d check%s run, %d failed@." (List.length reports)
    (if List.length reports = 1 then "" else "s")
    failed;
  reports

let ok reports =
  reports <> []
  && List.for_all
       (fun r -> match r.outcome with Check.Pass _ -> true | _ -> false)
       reports

let replay ?(out = Format.std_formatter) ~filename () =
  match Case.load ~filename with
  | Error msg -> Error (Printf.sprintf "%s: %s" filename msg)
  | Ok { Case.case; check = name; detail } -> (
    match
      List.find_opt
        (fun (c : Check.t) -> c.Check.name = name)
        (all_checks ~golden:false ())
    with
    | None -> Error (Printf.sprintf "%s: unknown check %S" filename name)
    | Some check -> (
      match check.Check.replay with
      | None -> Error (Printf.sprintf "check %S is not replayable" name)
      | Some replay -> (
        Format.fprintf out "replaying %s against %s@." filename name;
        Format.fprintf out "  case:     %s@." (Case.to_string case);
        Format.fprintf out "  recorded: %s@." detail;
        match replay case with
        | Some now ->
          Format.fprintf out "  still violates: %s@." now;
          Ok `Still_fails
        | None ->
          Format.fprintf out "  no longer violates@.";
          Ok `Fixed)))
