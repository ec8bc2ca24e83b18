(* Validates an xlint.sarif artifact against the SARIF 2.1.0 subset
   [Sarif] emits: a parseable document with the right version, one run,
   a tool.driver carrying a complete rule table, and results whose
   ruleIds resolve into that table with well-formed regions. Used by
   the @lint alias; exits non-zero with a diagnostic on the first
   violation. *)

module J = Xheal_obs.Jsonw

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let get name json =
  match J.member name json with Some v -> v | None -> fail "missing field %S" name

let get_string name json =
  match get name json with J.String s -> s | _ -> fail "field %S is not a string" name

let get_int name json =
  match get name json with J.Int i -> i | _ -> fail "field %S is not an integer" name

let get_list name json =
  match get name json with J.List l -> l | _ -> fail "field %S is not a list" name

let levels = [ "error"; "warning"; "note" ]

let check_level where json =
  let l = get_string "level" json in
  if not (List.mem l levels) then fail "%s: bad level %S" where l

let check_rule json =
  let id = get_string "id" json in
  if id = "" then fail "rule with empty id";
  let short = get "shortDescription" json in
  if get_string "text" short = "" then fail "rule %s: empty shortDescription" id;
  let full = get "fullDescription" json in
  if get_string "text" full = "" then fail "rule %s: empty fullDescription" id;
  let conf = get "defaultConfiguration" json in
  let l = get_string "level" conf in
  if not (List.mem l levels) then fail "rule %s: bad defaultConfiguration.level %S" id l;
  id

let check_result ~rule_ids json =
  let rule = get_string "ruleId" json in
  if not (List.mem rule rule_ids) then
    fail "result ruleId %S not in the driver rule table" rule;
  check_level (Printf.sprintf "result (%s)" rule) json;
  if get_string "text" (get "message" json) = "" then
    fail "result (%s): empty message" rule;
  match get_list "locations" json with
  | [ loc ] ->
    let phys = get "physicalLocation" loc in
    let uri = get_string "uri" (get "artifactLocation" phys) in
    if uri = "" then fail "result (%s): empty artifact uri" rule;
    let region = get "region" phys in
    let start_line = get_int "startLine" region in
    let start_col = get_int "startColumn" region in
    let end_line = get_int "endLine" region in
    if start_line < 1 then fail "result (%s): startLine %d < 1" rule start_line;
    if start_col < 1 then fail "result (%s): startColumn %d < 1" rule start_col;
    if end_line < start_line then
      fail "result (%s): endLine %d before startLine %d" rule end_line start_line
  | locs -> fail "result (%s): expected exactly one location, got %d" rule (List.length locs)

let check_doc json =
  if get_string "version" json <> "2.1.0" then
    fail "version is not 2.1.0";
  if get_string "$schema" json = "" then fail "empty $schema";
  match get_list "runs" json with
  | [ run ] ->
    let driver = get "driver" (get "tool" run) in
    if get_string "name" driver <> "xlint" then fail "tool.driver.name is not xlint";
    let rule_ids = List.map check_rule (get_list "rules" driver) in
    if rule_ids = [] then fail "empty rule table";
    let results = get_list "results" run in
    List.iter (check_result ~rule_ids) results;
    List.length results
  | runs -> fail "expected exactly one run, got %d" (List.length runs)

let check_file path =
  match J.of_string (read_file path) with
  | Error msg -> fail "unparseable JSON: %s" msg
  | Ok json -> check_doc json

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: sarif_check FILE.sarif...";
    exit 2
  end;
  let bad = ref false in
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    match check_file path with
    | n -> Printf.printf "sarif_check: %s ok (%d result(s))\n" path n
    | exception Bad msg ->
      bad := true;
      Printf.eprintf "sarif_check: %s: %s\n" path msg
    | exception Sys_error msg ->
      bad := true;
      Printf.eprintf "sarif_check: %s\n" msg
  done;
  exit (if !bad then 1 else 0)
