(* SARIF 2.1.0 export (the subset every SARIF consumer requires:
   tool.driver with a rule table, one result per finding with a
   physicalLocation region).

   Built on [Jsonw] so the output is byte-deterministic: same findings,
   same bytes — any diff-based CI consumer relies on that. test_lint's
   "SARIF export shape" reads the log back and checks this subset.
   Columns are 1-based per the SARIF spec; [Finding.col] is 0-based. *)

open Xheal_obs

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let level sev = Jsonw.String (Finding.severity_to_string sev)

let rule_descriptor id =
  let sev, doc, explain =
    match Rules.meta id with
    | Some m -> m
    | None -> (Finding.Error, id, id)
  in
  Jsonw.Obj
    [
      ("id", Jsonw.String id);
      ("shortDescription", Jsonw.Obj [ ("text", Jsonw.String doc) ]);
      ("fullDescription", Jsonw.Obj [ ("text", Jsonw.String explain) ]);
      ("defaultConfiguration", Jsonw.Obj [ ("level", level sev) ]);
    ]

let result (f : Finding.t) =
  Jsonw.Obj
    [
      ("ruleId", Jsonw.String f.Finding.rule);
      ("level", level (Rules.severity_of f.Finding.rule));
      ("message", Jsonw.Obj [ ("text", Jsonw.String f.Finding.message) ]);
      ( "locations",
        Jsonw.List
          [
            Jsonw.Obj
              [
                ( "physicalLocation",
                  Jsonw.Obj
                    [
                      ( "artifactLocation",
                        Jsonw.Obj [ ("uri", Jsonw.String f.Finding.file) ] );
                      ( "region",
                        Jsonw.Obj
                          [
                            ("startLine", Jsonw.Int f.Finding.line);
                            ("startColumn", Jsonw.Int (f.Finding.col + 1));
                            ("endLine", Jsonw.Int f.Finding.end_line);
                          ] );
                    ] );
              ];
          ] );
    ]

let of_findings findings =
  Jsonw.Obj
    [
      ("version", Jsonw.String "2.1.0");
      ("$schema", Jsonw.String schema_uri);
      ( "runs",
        Jsonw.List
          [
            Jsonw.Obj
              [
                ( "tool",
                  Jsonw.Obj
                    [
                      ( "driver",
                        Jsonw.Obj
                          [
                            ("name", Jsonw.String "xlint");
                            ("version", Jsonw.String "2.0.0");
                            ( "informationUri",
                              Jsonw.String "file:DESIGN.md#4d-static-analysis" );
                            ("rules", Jsonw.List (List.map rule_descriptor Rules.ids));
                          ] );
                    ] );
                ("results", Jsonw.List (List.map result findings));
              ];
          ] );
    ]

let to_string findings = Jsonw.to_string_pretty (of_findings findings) ^ "\n"
