let header = "time,r_value,s_value"

let to_channel trace oc =
  output_string oc header;
  output_char oc '\n';
  let n = Trace.length trace in
  for t = 0 to n - 1 do
    Printf.fprintf oc "%d,%d,%d\n" t trace.Trace.r_values.(t)
      trace.Trace.s_values.(t)
  done

type error =
  | Bad_header of { found : string }
  | Bad_field of { line : int }
  | Wrong_arity of { line : int; fields : int }
  | Out_of_order of { line : int; time : int; expected : int }
  | Io_error of { message : string }

let error_to_string = function
  | Bad_header { found } ->
    Printf.sprintf "Trace_io: expected header %S, found %S" header found
  | Bad_field { line } ->
    Printf.sprintf "Trace_io: non-integer field on line %d" line
  | Wrong_arity { line; fields } ->
    Printf.sprintf "Trace_io: expected 3 fields on line %d, found %d" line
      fields
  | Out_of_order { line; time; expected } ->
    Printf.sprintf "Trace_io: time %d out of order on line %d (expected %d)"
      time line expected
  | Io_error { message } -> Printf.sprintf "Trace_io: %s" message

let save trace ~filename =
  match open_out filename with
  | exception Sys_error message -> Error (Io_error { message })
  | oc -> (
    match
      to_channel trace oc;
      close_out oc
    with
    | () -> Ok ()
    | exception Sys_error message ->
      close_out_noerr oc;
      Error (Io_error { message }))

exception Malformed of error

let parse_line ~lineno line =
  match String.split_on_char ',' (String.trim line) with
  | [ t; r; s ] -> (
    match (int_of_string_opt t, int_of_string_opt r, int_of_string_opt s) with
    | Some t, Some r, Some s -> (t, r, s)
    | _ -> raise (Malformed (Bad_field { line = lineno })))
  | fields ->
    raise (Malformed (Wrong_arity { line = lineno; fields = List.length fields }))

let of_channel_exn ic =
  let first = try input_line ic with End_of_file -> "" in
  if String.trim first <> header then
    raise (Malformed (Bad_header { found = first }));
  let rs = ref [] and ss = ref [] in
  let count = ref 0 in
  let lineno = ref 1 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         let t, r, s = parse_line ~lineno:!lineno line in
         if t <> !count then
           raise
             (Malformed
                (Out_of_order { line = !lineno; time = t; expected = !count }));
         incr count;
         rs := r :: !rs;
         ss := s :: !ss
       end
     done
   with End_of_file -> ());
  Trace.of_values
    ~r:(Array.of_list (List.rev !rs))
    ~s:(Array.of_list (List.rev !ss))

let of_channel_result ic =
  match of_channel_exn ic with
  | trace -> Ok trace
  | exception Malformed e -> Error e
  | exception Sys_error message -> Error (Io_error { message })

let load_result ~filename =
  match open_in filename with
  | exception Sys_error message -> Error (Io_error { message })
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_channel_result ic)
