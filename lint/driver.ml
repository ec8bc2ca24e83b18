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

(* A file the compiler cannot parse gets a synthetic E0 finding rather
   than aborting the whole run. *)
let parse_error_finding ~path exn =
  let line, col =
    match exn with
    | Syntaxerr.Error e ->
      let p = (Syntaxerr.location_of_error e).Location.loc_start in
      (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
    | _ -> (1, 0)
  in
  {
    Finding.rule = "E0";
    file = path;
    line;
    col;
    end_line = line;
    message = Printf.sprintf "cannot parse: %s" (Printexc.to_string exn);
  }

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
   source), independent of [as_path]. *)
let lint_file ?(rules = Rules.all) ?as_path path =
  let rel = Option.value ~default:path as_path in
  match parse_implementation path with
  | exception exn ->
    { findings = [ parse_error_finding ~path:rel exn ]; typed = false }
  | structure ->
    let pragmas = Pragma.scan_file path in
    let ctx = { Rule.path = rel; hot_lines = Pragma.hot_lines pragmas } in
    let needs_types =
      List.exists
        (fun r ->
          r.Rule.applies rel
          && match r.Rule.check with Rule.Typed _ -> true | Rule.Syntactic _ -> false)
        rules
    in
    let tstr = if needs_types then Typedload.for_file ~path structure else None in
    let findings =
      rules
      |> List.concat_map (fun r ->
             if not (r.Rule.applies rel) then []
             else
               match r.Rule.check with
               | Rule.Syntactic f -> f ctx structure
               | Rule.Typed { run; fallback } -> (
                 match tstr with
                 | Some t -> run ctx t
                 | None -> (
                   match fallback with Some f -> f ctx structure | None -> [])))
      |> List.filter (fun f ->
             not
               (Pragma.disabled pragmas ~line:f.Finding.line ~end_line:f.Finding.end_line
                  ~rule:f.Finding.rule))
      |> List.sort Finding.compare
    in
    { findings; typed = tstr <> None }

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
  if result.all_findings <> [] then begin
    let count sev =
      List.length
        (List.filter
           (fun f -> Rules.severity_of f.Finding.rule = sev)
           result.all_findings)
    in
    Format.fprintf ppf "xlint: %d finding(s) (%d error(s), %d warning(s)) in %d file(s), %d typed@."
      (List.length result.all_findings)
      (count Finding.Error) (count Finding.Warning) result.files result.typed_files
  end

(* ------------------------------------------------------------------ *)
(* Fixture self-test: the corpus encodes its expectations in file     *)
(* names.  [<rule>_bad*.ml] must produce at least one <RULE> finding  *)
(* and [<rule>_good*.ml] must produce none; every fixture is linted   *)
(* as if it lived at lib/distributed/<name> so all rules are in       *)
(* scope.  Fixtures named [*_typed_*] additionally require the typed  *)
(* tree (direct typing must have succeeded), so a regression in       *)
(* [Typedload] cannot silently demote them to the syntactic fallback. *)

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
    if contains ~sub:"_typed_" name && not o.typed then
      fail "typed fixture, but no typed tree was available";
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
