(* xlint driver: find sources, parse, (maybe) type, run the rule
   catalogue, filter suppressions, report. Everything is deterministic:
   files are visited in sorted order and findings are sorted by
   (file, line, col, rule). *)

let parse_implementation path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

(* A file xlint cannot read as a whole gets one synthetic finding on
   its first line rather than aborting the run: E0 when it does not
   parse, E1 when no typed tree backs it. *)
let file_finding ~rule ~path ~line ~col message =
  { Finding.rule; file = path; line; col; end_line = line; message }

let parse_error_finding ~path exn =
  let line, col =
    match exn with
    | Syntaxerr.Error e ->
      let p = (Syntaxerr.location_of_error e).Location.loc_start in
      (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
    | _ -> (1, 0)
  in
  file_finding ~rule:"E0" ~path ~line ~col
    (Printf.sprintf "cannot parse: %s" (Printexc.to_string exn))

(* The result of linting one file: the findings that survive its
   pragmas. *)
type outcome = {
  findings : Finding.t list;
  typed : bool; (* a typed tree backed the typed rules *)
}

(* Lint one file. [as_path] is the repo-relative path used for rule
   applicability and reporting; it defaults to [path] and exists so
   tests can lint a fixture as if it lived under lib/. The typed tree
   is looked up by the {e real} [path] (cmt side-cars live next to the
   source's copy in the build tree), independent of [as_path]. A file
   that typed rules apply to but that cannot be typed gets an E1
   finding, which no pragma silences; the syntactic rules still run on
   it. *)
let lint_file ?(rules = Rules.all) ?as_path path =
  let rel = Option.value ~default:path as_path in
  match parse_implementation path with
  | exception exn ->
    { findings = [ parse_error_finding ~path:rel exn ]; typed = false }
  | structure ->
    let pragmas = Pragma.scan_file path in
    let ctx = { Rule.path = rel; hot_lines = Pragma.hot_lines pragmas } in
    let applicable = List.filter (fun r -> r.Rule.applies rel) rules in
    let typed_ids =
      List.filter_map
        (fun r -> match r.Rule.check with Rule.Typed _ -> Some r.Rule.id | Rule.Syntactic _ -> None)
        applicable
    in
    let tree = if typed_ids = [] then None else Some (Typedload.for_file ~path structure) in
    let run r =
      match (r.Rule.check, tree) with
      | Rule.Syntactic f, _ -> f ctx structure
      | Rule.Typed f, Some (Ok t) -> f ctx t
      | Rule.Typed _, _ -> []
    in
    let untyped =
      match tree with
      | Some (Error why) ->
        [
          file_finding ~rule:"E1" ~path:rel ~line:1 ~col:0
            (Printf.sprintf "cannot type: %s; %s did not run" why (String.concat ", " typed_ids));
        ]
      | Some (Ok _) | None -> []
    in
    let findings =
      List.concat_map run applicable
      |> List.filter (fun f ->
             not
               (Pragma.disabled pragmas ~line:f.Finding.line ~end_line:f.Finding.end_line
                  ~rule:f.Finding.rule))
      |> List.append untyped
      |> List.sort Finding.compare
    in
    { findings; typed = Option.fold ~none:false ~some:Result.is_ok tree }

let is_ml path = Filename.check_suffix path ".ml"

let rec collect_ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun name -> name <> "" && name.[0] <> '.' && name.[0] <> '_')
    |> List.concat_map (fun name -> collect_ml_files (Filename.concat path name))
  else if is_ml path then [ path ]
  else []

(* ------------------------------------------------------------------ *)
(* Whole-tree run.                                                    *)

type run_result = {
  all_findings : Finding.t list; (* unsuppressed, sorted *)
  files : int;
  typed_files : int;
}

let run ?rules dirs =
  let files = dirs |> List.concat_map collect_ml_files in
  let outcomes = List.map (fun path -> lint_file ?rules path) files in
  {
    all_findings = List.concat_map (fun o -> o.findings) outcomes |> List.sort Finding.compare;
    files = List.length files;
    typed_files = List.length (List.filter (fun o -> o.typed) outcomes);
  }

let report ppf result =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) result.all_findings;
  let count sev =
    List.length
      (List.filter (fun f -> Rules.severity_of f.Finding.rule = sev) result.all_findings)
  in
  Format.fprintf ppf "xlint: %d finding(s) (%d error(s), %d warning(s)) in %d file(s), %d typed@."
    (List.length result.all_findings)
    (count Finding.Error) (count Finding.Warning) result.files result.typed_files

(* ------------------------------------------------------------------ *)
(* Fixture self-test: the corpus encodes its expectations in file     *)
(* names.  [<rule>_bad*.ml] must produce at least one <RULE> finding  *)
(* and [<rule>_good*.ml] must produce none; every fixture is linted   *)
(* as if it lived at lib/distributed/<name> so all rules are in       *)
(* scope.  Every fixture must also type on its own: one that does not *)
(* fails with its E1 message, so the typed rules never go untested.   *)

let fixture_rule name =
  match String.index_opt name '_' with
  | Some i -> Some (String.uppercase_ascii (String.sub name 0 i))
  | None -> None

(* The rules a fixture is linted with: all of them, except that U1,
   which asks whether anything in the program uses an export, runs
   only on its own fixtures. Any other fixture is a lone unit that by
   construction nothing calls. *)
let fixture_rules name =
  if fixture_rule name = Some "U1" then Rules.all
  else List.filter (fun r -> r.Rule.id <> "U1") Rules.all

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let self_test ppf dir =
  let failures = ref 0 in
  let check path =
    let name = Filename.basename path in
    let o = lint_file ~rules:(fixture_rules name) ~as_path:("lib/distributed/" ^ name) path in
    let fail fmt =
      incr failures;
      Format.fprintf ppf ("FAIL %s: " ^^ fmt ^^ "@.") name
    in
    List.iter (fun f -> if f.Finding.rule = "E1" then fail "%s" f.Finding.message) o.findings;
    match fixture_rule name with
    | Some rule when contains ~sub:"_bad" name ->
      if not (List.exists (fun f -> f.Finding.rule = rule) o.findings) then
        fail "expected a %s finding, got %d finding(s)" rule (List.length o.findings)
    | Some _ when contains ~sub:"_good" name ->
      if o.findings <> [] then begin
        fail "expected no findings:";
        List.iter (fun f -> Format.fprintf ppf "  %a@." Finding.pp f) o.findings
      end
    | _ -> fail "fixture name must look like d1_bad*.ml or d1_good*.ml"
  in
  let files = collect_ml_files dir in
  if files = [] then begin
    Format.fprintf ppf "xlint --fixtures: no .ml files under %s@." dir;
    incr failures
  end;
  List.iter check files;
  if !failures = 0 then
    Format.fprintf ppf "xlint: fixture self-test ok (%d fixtures)@." (List.length files);
  !failures = 0
