(* xlint — typed static analysis for the Xheal stack: determinism (D),
   clock discipline (C) and hot-path allocation (H) rule families.

   Usage:
     xlint [--sarif FILE] [--json] DIR...
                                      lint every .ml under DIRs
     xlint --fixtures DIR             run the fixture self-test corpus
     xlint --explain RULE             print a rule's full rationale
     xlint --rules                    list the catalogue

   Exit status is 0 iff no findings (respectively: all fixture
   expectations hold / the rule exists). *)

open Xheal_lint
open Xheal_obs

let json_of_finding (f : Finding.t) =
  Jsonw.Obj
    [
      ("rule", Jsonw.String f.Finding.rule);
      ( "severity",
        Jsonw.String (Finding.severity_to_string (Rules.severity_of f.Finding.rule)) );
      ("file", Jsonw.String f.Finding.file);
      ("line", Jsonw.Int f.Finding.line);
      ("col", Jsonw.Int f.Finding.col);
      ("endLine", Jsonw.Int f.Finding.end_line);
      ("message", Jsonw.String f.Finding.message);
    ]

let explain rule =
  match Rules.explain rule with
  | Some text ->
    let sev, doc, _ = Option.get (Rules.meta rule) in
    Printf.printf "%s (%s): %s\n\n%s\n" rule (Finding.severity_to_string sev) doc text;
    0
  | None ->
    Printf.eprintf "xlint: unknown rule %S; known: %s\n" rule
      (String.concat " " Rules.ids);
    2

let list_rules () =
  List.iter
    (fun id ->
      let sev, doc, _ = Option.get (Rules.meta id) in
      Printf.printf "%-3s %-7s %s\n" id (Finding.severity_to_string sev) doc)
    Rules.ids

let () =
  let sarif_file = ref None in
  let json = ref false in
  let fixtures = ref None in
  let explain_rule = ref None in
  let rules_only = ref false in
  let dirs = ref [] in
  let spec =
    [
      ( "--sarif",
        Arg.String (fun f -> sarif_file := Some f),
        "FILE write the findings as SARIF 2.1.0 to FILE" );
      ("--json", Arg.Set json, " print findings as JSON on stdout");
      ( "--fixtures",
        Arg.String (fun d -> fixtures := Some d),
        "DIR run the fixture self-test over DIR instead of linting" );
      ( "--explain",
        Arg.String (fun r -> explain_rule := Some r),
        "RULE print RULE's full rationale and exit" );
      ("--rules", Arg.Set rules_only, " list the rule catalogue and exit");
    ]
  in
  let usage =
    "xlint [--sarif FILE] [--json] DIR... | xlint --fixtures DIR | xlint --explain RULE"
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  match (!explain_rule, !rules_only, !fixtures) with
  | Some rule, _, _ -> exit (explain rule)
  | None, true, _ ->
    list_rules ();
    exit 0
  | None, false, Some dir ->
    if Driver.self_test Format.std_formatter dir then exit 0 else exit 1
  | None, false, None ->
    if !dirs = [] then begin
      prerr_endline usage;
      exit 2
    end;
    let result = Driver.run (List.rev !dirs) in
    (match !sarif_file with
    | Some f ->
      let oc = open_out f in
      output_string oc (Sarif.to_string result.Driver.all_findings);
      close_out oc
    | None -> ());
    if !json then
      print_endline
        (Jsonw.to_string (Jsonw.List (List.map json_of_finding result.Driver.all_findings)))
    else Driver.report Format.std_formatter result;
    if result.Driver.all_findings = [] then exit 0 else exit 1
