module Json = Ssj_obs.Json

(* Header schema: the first non-empty line of a checkpoint written by
   this binary is {"ssj_checkpoint_schema": N}.  Headerless files are the
   version-1 format (every pre-header release) and load unchanged; a
   header claiming a NEWER version than this binary understands is
   rejected with a typed error — silently reading records whose meaning
   may have changed would poison a resumed sweep bit-for-bit. *)
let schema_version = 2

type error = Schema_newer of { path : string; found : int; supported : int }

exception Rejected of error

let error_to_string = function
  | Schema_newer { path; found; supported } ->
    Printf.sprintf
      "checkpoint %s has schema version %d, newer than the supported %d; \
       re-run with a newer binary or start a fresh checkpoint file"
      path found supported

let () =
  Printexc.register_printer (function
    | Rejected e -> Some ("Checkpoint.Rejected: " ^ error_to_string e)
    | _ -> None)

type t = {
  path : string;
  table : (string, float) Hashtbl.t;
  mutable oc : out_channel option;
  mutable loaded : int;
  mutable corrupt : int;
  mu : Mutex.t;
}

(* A record line: {"key": ..., "hex": "%h", "value": ...}; only "key"
   and "hex" are read back (the decimal "value" is for humans and jq). *)
let parse_record j =
  match (Json.member "key" j, Json.member "hex" j) with
  | Some (Json.String key), Some (Json.String hex) ->
    Option.map (fun v -> (key, v)) (float_of_string_opt hex)
  | _ -> None

let header_schema j =
  Option.bind (Json.member "ssj_checkpoint_schema" j) Json.as_int

(* Returns [Error] when the file's header declares a newer schema;
   otherwise fills the table from the record lines. *)
let load_existing t =
  match In_channel.with_open_bin t.path In_channel.input_all with
  | exception Sys_error _ -> Ok ()
  | text -> (
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun line -> String.trim line <> "")
      |> List.map (fun line -> Result.to_option (Json.of_string line))
    in
    let header, records =
      match lines with
      | Some first :: rest when header_schema first <> None ->
        (header_schema first, rest)
      | _ -> (None, lines)
    in
    match header with
    | Some found when found > schema_version ->
      Error (Schema_newer { path = t.path; found; supported = schema_version })
    | _ ->
      List.iter
        (fun line ->
          match Option.bind line parse_record with
          | Some (key, v) ->
            Hashtbl.replace t.table key v;
            t.loaded <- t.loaded + 1
          | None -> t.corrupt <- t.corrupt + 1)
        records;
      Ok ())

let create_result ~path =
  let t =
    {
      path;
      table = Hashtbl.create 256;
      oc = None;
      loaded = 0;
      corrupt = 0;
      mu = Mutex.create ();
    }
  in
  Result.map (fun () -> t) (load_existing t)

let create ~path =
  match create_result ~path with Ok t -> t | Error e -> raise (Rejected e)

let from_env () =
  match Sys.getenv_opt "SSJ_CHECKPOINT" with
  | Some path when path <> "" -> Some (create ~path)
  | Some _ | None -> None

let path t = t.path
let loaded t = t.loaded
let corrupt_lines t = t.corrupt

let find t ~key =
  Mutex.lock t.mu;
  let v = Hashtbl.find_opt t.table key in
  Mutex.unlock t.mu;
  v

(* The file's last byte, [None] when it is missing or empty.  A killed
   writer can leave the file without a final newline (a torn record);
   appending straight after it would weld the next record onto the torn
   one and corrupt both. *)
let last_byte path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        if n = 0 then None
        else begin
          seek_in ic (n - 1);
          Some (input_char ic)
        end)

let output_line oc j = output_string oc (Json.to_string j ^ "\n")

let channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    let last = last_byte t.path in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 t.path in
    (match last with
    | None ->
      output_line oc
        (Json.Object [ ("ssj_checkpoint_schema", Json.int schema_version) ])
    | Some '\n' -> ()
    | Some _ -> output_char oc '\n');
    t.oc <- Some oc;
    oc

let record t ~key v =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      Hashtbl.replace t.table key v;
      let oc = channel t in
      output_line oc
        (Json.Object
           [
             ("key", Json.String key);
             ("hex", Json.String (Printf.sprintf "%h" v));
             ("value", Json.fixed 4 v);
           ]);
      flush oc)

let close t =
  Mutex.lock t.mu;
  (match t.oc with
  | Some oc ->
    (try close_out oc with Sys_error _ -> ());
    t.oc <- None
  | None -> ());
  Mutex.unlock t.mu
