type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer.                                                            *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Fixed-format floats: decimal, six fractional digits, no exponent
   notation, so equal floats always print as equal bytes and a reader
   round-trips them. JSON has no NaN/infinity literal, so non-finite
   values print as [null] — the finiteness test must come first because
   [Float.is_integer infinity] is true. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6f" f

let rec write ~indent ~level b v =
  let nl pad =
    if indent then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * pad) ' ')
    end
  in
  let sequence open_c close_c items emit =
    match items with
    | [] ->
      Buffer.add_char b open_c;
      Buffer.add_char b close_c
    | _ ->
      Buffer.add_char b open_c;
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          nl (level + 1);
          emit item)
        items;
      nl level;
      Buffer.add_char b close_c
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List items -> sequence '[' ']' items (write ~indent ~level:(level + 1) b)
  | Obj fields ->
    sequence '{' '}' fields (fun (k, v) ->
        escape_string b k;
        Buffer.add_char b ':';
        if indent then Buffer.add_char b ' ';
        write ~indent ~level:(level + 1) b v)

let render ~indent v =
  let b = Buffer.create 256 in
  write ~indent ~level:0 b v;
  Buffer.contents b

let to_string v = render ~indent:false v

let to_string_pretty v = render ~indent:true v
