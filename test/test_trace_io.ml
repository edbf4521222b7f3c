open Ssj_stream
open Helpers

let temp_file () = Filename.temp_file "ssj_trace" ".csv"

let save_ok t ~filename =
  match Trace_io.save t ~filename with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Trace_io.error_to_string e)

let load_ok ~filename =
  match Trace_io.load_result ~filename with
  | Ok t -> t
  | Error e -> Alcotest.fail (Trace_io.error_to_string e)

let load_error content =
  let file = temp_file () in
  let oc = open_out file in
  output_string oc content;
  close_out oc;
  let result = Trace_io.load_result ~filename:file in
  Sys.remove file;
  match result with
  | Ok _ -> Alcotest.fail "expected a structured error"
  | Error e -> e

let test_roundtrip_explicit () =
  let t = Trace.of_values ~r:[| 1; -2; 3 |] ~s:[| 40; 5; -6 |] in
  let file = temp_file () in
  save_ok t ~filename:file;
  let back = load_ok ~filename:file in
  Sys.remove file;
  Alcotest.(check (array int)) "r" t.Trace.r_values back.Trace.r_values;
  Alcotest.(check (array int)) "s" t.Trace.s_values back.Trace.s_values

(* The rendered messages, as the CLI prints them. *)
let check_message content expected =
  Alcotest.(check string)
    (String.escaped content) expected
    (Trace_io.error_to_string (load_error content))

let test_rejects_bad_header () =
  check_message "nope\n0,1,2\n"
    "Trace_io: expected header \"time,r_value,s_value\", found \"nope\""

let test_rejects_out_of_order () =
  check_message
    (Trace_io.header ^ "\n0,1,2\n2,3,4\n")
    "Trace_io: time 2 out of order on line 3 (expected 1)"

let test_rejects_garbage_fields () =
  check_message
    (Trace_io.header ^ "\n0,one,2\n")
    "Trace_io: non-integer field on line 2"

let prop_roundtrip =
  qcheck ~count:50 "save/load is the identity"
    QCheck2.Gen.(
      let* n = int_range 0 60 in
      let* r = list_repeat n (int_range (-1000) 1000) in
      let* s = list_repeat n (int_range (-1000) 1000) in
      return (r, s))
    (fun (r, s) ->
      let t = Trace.of_values ~r:(Array.of_list r) ~s:(Array.of_list s) in
      let file = temp_file () in
      save_ok t ~filename:file;
      let back = load_ok ~filename:file in
      Sys.remove file;
      back.Trace.r_values = t.Trace.r_values
      && back.Trace.s_values = t.Trace.s_values)

let test_structured_errors () =
  (match load_error "nope\n0,1,2\n" with
  | Trace_io.Bad_header { found } -> Alcotest.(check string) "found" "nope" found
  | e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e));
  (match load_error (Trace_io.header ^ "\n0,1,2\n2,3,4\n") with
  | Trace_io.Out_of_order { line; time; expected } ->
    check_int "line" 3 line;
    check_int "time" 2 time;
    check_int "expected" 1 expected
  | e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e));
  (match load_error (Trace_io.header ^ "\n0,one,2\n") with
  | Trace_io.Bad_field { line } -> check_int "line" 2 line
  | e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e));
  (match load_error (Trace_io.header ^ "\n0,1\n") with
  | Trace_io.Wrong_arity { line; fields } ->
    check_int "line" 2 line;
    check_int "fields" 2 fields
  | e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e));
  (match
     load_error (Printf.sprintf "%s\n0,1,2\n1,3,%d\n" Trace_io.header min_int)
   with
  | Trace_io.Reserved_value { line } -> check_int "line" 3 line
  | e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e));
  match Trace_io.load_result ~filename:"/nonexistent/ssj/trace.csv" with
  | Error (Trace_io.Io_error _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Io_error"

let test_result_ok_matches_load () =
  let t = Trace.of_values ~r:[| 1; 2 |] ~s:[| 3; 4 |] in
  let file = temp_file () in
  save_ok t ~filename:file;
  (match Trace_io.load_result ~filename:file with
  | Ok back ->
    Alcotest.(check (array int)) "r" t.Trace.r_values back.Trace.r_values
  | Error e -> Alcotest.fail (Trace_io.error_to_string e));
  Sys.remove file

let test_save_unwritable () =
  (* The directory is a regular file, so the path cannot be created. *)
  let dir = temp_file () in
  let result =
    Trace_io.save
      (Trace.of_values ~r:[| 1 |] ~s:[| 2 |])
      ~filename:(Filename.concat dir "trace.csv")
  in
  Sys.remove dir;
  match result with
  | Error (Trace_io.Io_error _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Trace_io.error_to_string e)
  | Ok () -> Alcotest.fail "expected Io_error"

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip_explicit;
    Alcotest.test_case "bad header" `Quick test_rejects_bad_header;
    Alcotest.test_case "out of order" `Quick test_rejects_out_of_order;
    Alcotest.test_case "garbage fields" `Quick test_rejects_garbage_fields;
    Alcotest.test_case "structured errors" `Quick test_structured_errors;
    Alcotest.test_case "load_result ok path" `Quick test_result_ok_matches_load;
    prop_roundtrip;
    Alcotest.test_case "save to an unwritable path" `Quick test_save_unwritable;
  ]
