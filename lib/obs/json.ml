type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

let int n = Number (string_of_int n)

let fixed decimals x =
  if Float.is_finite x then Number (Printf.sprintf "%.*f" decimals x) else Null

(* --- writing --------------------------------------------------------- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [break j] decides whether container [j] puts one member per line. *)
let rec write buf ~break ~indent j =
  let container op cl members =
    let broken = members <> [] && break j in
    let pad = if broken then "\n" ^ String.make (indent + 2) ' ' else "" in
    Buffer.add_char buf op;
    List.iteri
      (fun i (key, v) ->
        Buffer.add_string buf
          (if i = 0 then pad else if broken then "," ^ pad else ", ");
        Option.iter (fun k -> add_quoted buf k; Buffer.add_string buf ": ") key;
        write buf ~break ~indent:(indent + 2) v)
      members;
    if broken then Buffer.add_string buf ("\n" ^ String.make indent ' ');
    Buffer.add_char buf cl
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number n -> Buffer.add_string buf n
  | String s -> add_quoted buf s
  | Array items -> container '[' ']' (List.map (fun v -> (None, v)) items)
  | Object members ->
    container '{' '}' (List.map (fun (k, v) -> (Some k, v)) members)

let to_string j =
  let buf = Buffer.create 128 in
  write buf ~break:(fun _ -> false) ~indent:0 j;
  Buffer.contents buf

let pretty j =
  let buf = Buffer.create 4096 in
  let rec column i =
    if i < 0 || Buffer.nth buf i = '\n' then Buffer.length buf - i - 1
    else column (i - 1)
  in
  let break j =
    column (Buffer.length buf - 1) + String.length (to_string j) > 100
  in
  write buf ~break ~indent:0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- reading --------------------------------------------------------- *)

exception Syntax of int * string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg =
    let msg = if !pos >= n then "unexpected end of input" else msg in
    raise (Syntax (!pos, msg))
  in
  (* '\000' past the end: never valid where a token is expected. *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    let c = peek () in
    if !pos < n then incr pos;
    c
  in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  let digits () =
    let start = !pos in
    while match peek () with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    Number (String.sub s start (!pos - start))
  in
  let hex4 () =
    let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if hex = "" || not (String.for_all is_hex hex) then
      fail "invalid \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  (* UTF-16 surrogates must come as a high/low pair. *)
  let code_point () =
    let u = hex4 () in
    if u land 0xFC00 = 0xDC00 then fail "unpaired surrogate";
    if u land 0xFC00 <> 0xD800 then u
    else begin
      if next () <> '\\' || next () <> 'u' then fail "unpaired surrogate";
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
      0x10000 + (((u land 0x3FF) lsl 10) lor (lo land 0x3FF))
    end
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()))
        | _ -> fail "invalid escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  (* Comma-separated items up to [close]; the opening bracket is
     already consumed. *)
  let items close item =
    ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match next () with
        | ',' -> go acc
        | c when c = close -> List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      Object (items '}' member)
    | '[' ->
      incr pos;
      Array (items ']' value)
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  and member () =
    ws ();
    let key = string () in
    ws ();
    expect ':';
    (key, value ())
  in
  match
    let v = value () in
    ws ();
    if !pos < n then fail "trailing characters after the value";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) ->
    Error (Printf.sprintf "JSON syntax error at byte %d: %s" at msg)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let member key = function
  | Object members -> List.assoc_opt key members
  | _ -> None

let as_int = function Number n -> int_of_string_opt n | _ -> None
let as_float = function Number n -> float_of_string_opt n | _ -> None
let as_string = function String s -> Some s | _ -> None
let as_list = function Array l -> Some l | _ -> None
