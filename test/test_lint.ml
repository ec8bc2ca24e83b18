(* xlint unit tests over the fixture corpus in test/lint_fixtures/.
   The dune test stanza declares the fixtures as deps, so dune copies
   them beside the test binary, where [fixture] finds them whatever the
   working directory.  The complementary
   checks live in the @lint alias: the fixture self-test (every bad
   fixture fires, every good one is silent, every fixture types) and
   the zero-findings run over the real tree, which also writes the
   xlint.sarif artifact whose shape [test_sarif] checks here. *)

module Finding = Xheal_lint.Finding
module Rule = Xheal_lint.Rule
module Rules = Xheal_lint.Rules
module Driver = Xheal_lint.Driver
module Sarif = Xheal_lint.Sarif
module J = Xheal_obs.Jsonw
module Json = Support.Json

let fixture name =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "lint_fixtures") name

(* Lint a fixture as if it lived under lib/distributed/, where every
   rule is in scope (U1 only on its own fixtures, as in the @lint
   self-test). *)
let lint ?rules name =
  let rules = Option.value rules ~default:(Driver.fixture_rules name) in
  Driver.lint_file ~rules ~as_path:("lib/distributed/" ^ name) (fixture name)

let rule_lines (findings : Finding.t list) =
  List.map (fun f -> (f.Finding.rule, f.Finding.line)) findings

let finding_t = Alcotest.(list (pair string int))

let check_findings name expected file =
  Alcotest.check finding_t name expected (rule_lines (lint file).Driver.findings)

let test_d1 () =
  check_findings "d1 flags every global draw"
    [ ("D1", 2); ("D1", 3); ("D1", 4) ]
    "d1_bad.ml";
  check_findings "Random.State is sanctioned" [] "d1_good_state.ml"

let test_d2 () =
  check_findings "escaping fold" [ ("D2", 2) ] "d2_bad_fold.ml";
  check_findings "escaping iter" [ ("D2", 4) ] "d2_bad_iter.ml";
  check_findings "enclosing sort canonicalises" [] "d2_good_sorted.ml";
  check_findings "commutative reduction exempt" [] "d2_good_commutative.ml";
  (* A sort exempts the fold only when it consumes the fold's result. *)
  check_findings "sort of another value does not exempt (typed)" [ ("D2", 8) ]
    "d2_bad_typed_sortother.ml";
  (* A Hashtbl.Make instance is known by its fold's declaration, even
     behind an include. *)
  check_findings "functor instance" [ ("D2", 9) ] "d2_bad_functor.ml";
  check_findings "included instance (typed)" [ ("D2", 12) ] "d2_bad_typed_include.ml"

let test_d3 () =
  check_findings "wall-clock reads in lib/"
    [ ("D3", 2); ("D3", 3); ("D3", 4) ]
    "d3_bad.ml";
  check_findings "virtual clock only" [] "d3_good_virtual.ml";
  (* The same file outside lib/ is none of D3's business. *)
  Alcotest.check finding_t "bench may read the clock" []
    (rule_lines
       (Driver.lint_file ~rules:(Driver.fixture_rules "d3_bad.ml") ~as_path:"bench/d3_bad.ml"
          (fixture "d3_bad.ml")).Driver.findings)

let test_d4 () =
  check_findings "polymorphic compare and structured (=)"
    [ ("D4", 2); ("D4", 3); ("D4", 4) ]
    "d4_bad.ml";
  check_findings "dedicated comparators and atomic option tests" [] "d4_good.ml";
  (* D4 is scoped to the protocol layers. *)
  Alcotest.check finding_t "linalg is out of scope" []
    (rule_lines
       (Driver.lint_file ~rules:(Driver.fixture_rules "d4_bad.ml") ~as_path:"lib/linalg/d4_bad.ml"
          (fixture "d4_bad.ml")).Driver.findings)

(* D4 reads the instantiation type, not the shape of the operands. *)
let test_d4_typed () =
  check_findings "compare at int is exact (typed)" [] "d4_good_typed_int.ml";
  check_findings "tuple-typed variables caught (typed)" [ ("D4", 3) ]
    "d4_bad_typed_pair.ml"

let test_d5 () =
  check_findings "ignored Results"
    [ ("D5", 3); ("D5", 4); ("D5", 5) ]
    "d5_bad.ml";
  check_findings "matched Result and benign ignore" [] "d5_good.ml";
  (* The callee's name does not matter, only the Result type. *)
  check_findings "any ignored Result caught (typed)" [ ("D5", 6) ]
    "d5_bad_typed_anyname.ml"

let test_c_rules () =
  check_findings "one binding claiming both clocks" [ ("C1", 4) ] "c1_bad_mixed.ml";
  check_findings "unknown clock name" [ ("C1", 2) ] "c1_bad_unknown.ml";
  check_findings "one clock per binding passes" [] "c1_good_split.ml";
  check_findings "now into an engine charge" [ ("C2", 3) ] "c2_bad_mixing.ml";
  check_findings "engine claim under ~now" [ ("C2", 5) ] "c2_bad_claim.ml";
  check_findings "the measured-pricing bridge is sanctioned" [] "c2_good_bridge.ml"

let test_h_rules () =
  check_findings "closure per iteration" [ ("H1", 6) ] "h1_bad_closure.ml";
  check_findings "monitor-style sweep predicate per iteration" [ ("H1", 7) ]
    "h1_bad_monitor_sweep.ml";
  check_findings "hoisted closure passes" [] "h1_good_hoisted.ml";
  check_findings "tuple and cons per iteration"
    [ ("H2", 6); ("H2", 6) ]
    "h2_bad_tuple.ml";
  check_findings "scratch-state loop passes" [] "h2_good_scratch.ml";
  check_findings "List.map per iteration" [ ("H3", 6) ] "h3_bad_map.ml";
  check_findings "partial application per iteration (typed)" [ ("H4", 8) ]
    "h4_bad_typed_partial.ml";
  (* H-rules are opt-in: without the hot marker the same shapes are
     silent. *)
  let tmp = Filename.temp_file "xlint_cold" ".ml" in
  let oc = open_out tmp in
  output_string oc
    "let pairs n =\n  let acc = ref [] in\n  for i = 0 to n - 1 do\n    acc := (i, i) :: !acc\n  done;\n  !acc\n";
  close_out oc;
  let findings =
    (Driver.lint_file ~rules:(Driver.fixture_rules "h_cold.ml") ~as_path:"lib/distributed/cold.ml"
       tmp).Driver.findings
  in
  Sys.remove tmp;
  Alcotest.check finding_t "no hot marker, no H findings" [] (rule_lines findings)

(* U1 keys a reference by file, line and column on the typed tree: the
   default of an optional argument shares its function's line, and a
   field read shares a value's name, and neither is a use. *)
let test_u1 () =
  check_findings "two unused exports, both traps" [ ("U1", 5); ("U1", 11) ] "u1_bad_unused.ml";
  check_findings "a value its own unit uses" [] "u1_good_internal.ml"

let test_pragmas () =
  check_findings "preceding-line, same-line and disable= pragmas" []
    "d2_good_pragma.ml";
  (* The satellite edge: a trailing pragma on the END line of a
     multi-line flagged application. *)
  check_findings "trailing pragma on the apply's last line" []
    "d2_good_pragma_trailing.ml";
  (* A pragma for one rule must not silence another. *)
  let o = lint "d1_bad.ml" in
  Alcotest.(check bool) "D1 findings survive unrelated pragmas" true
    (o.Driver.findings <> [])

let test_parse_error () =
  (* An unparseable file must surface as a finding, not an exception. *)
  let tmp = Filename.temp_file "xlint_bad" ".ml" in
  let oc = open_out tmp in
  output_string oc "let let let = in in\n";
  close_out oc;
  let o = Driver.lint_file ~as_path:"lib/broken.ml" tmp in
  Sys.remove tmp;
  match o.Driver.findings with
  | [ f ] -> Alcotest.(check string) "E0 rule" "E0" f.Finding.rule
  | fs -> Alcotest.fail (Printf.sprintf "expected one E0 finding, got %d" (List.length fs))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let expect_e1 ~as_path ~reason o =
  Alcotest.(check bool) "no typed tree" false o.Driver.typed;
  match o.Driver.findings with
  | [ f ] ->
    Alcotest.(check (pair string string)) "one E1 naming the file" ("E1", as_path)
      (f.Finding.rule, f.Finding.file);
    Alcotest.(check bool)
      (Printf.sprintf "the message gives the reason (%S)" reason)
      true
      (Driver.contains ~sub:reason f.Finding.message)
  | fs -> Alcotest.failf "expected one E1 finding, got %d" (List.length fs)

(* A file xlint cannot type is named by one E1 finding, whether it
   types neither on its own nor from a side-car, or its side-car is
   older than the source; no typed rule stands in for the tree. *)
let test_untyped () =
  let tmp = Filename.temp_file "xlint_untyped" ".ml" in
  write_file tmp "let peers t = Nowhere.members t\n";
  let o = Driver.lint_file ~as_path:"lib/core/untyped.ml" tmp in
  Sys.remove tmp;
  expect_e1 ~as_path:"lib/core/untyped.ml" ~reason:"Nowhere" o;
  (* A side-car the build wrote for test/support.ml, beside a source
     that has changed since. *)
  let objs = Filename.concat (Filename.dirname Sys.executable_name) ".main.eobjs" in
  let cmt = "dune__exe__Support.cmt" in
  let dir = Filename.temp_dir "xlint_stale" "" in
  let copy_objs = Filename.concat dir ".main.eobjs" in
  let copy_byte = Filename.concat copy_objs "byte" in
  Sys.mkdir copy_objs 0o755;
  Sys.mkdir copy_byte 0o755;
  write_file (Filename.concat copy_byte cmt)
    (In_channel.with_open_bin (Filename.concat (Filename.concat objs "byte") cmt) In_channel.input_all);
  let source = Filename.concat dir "support.ml" in
  write_file source "let edited = 1\n";
  let o = Driver.lint_file ~as_path:"test/support.ml" source in
  List.iter Sys.remove [ source; Filename.concat copy_byte cmt ];
  List.iter Sys.rmdir [ copy_byte; copy_objs; dir ];
  expect_e1 ~as_path:"test/support.ml" ~reason:"stale" o

(* Every id a run can emit has a severity, a doc line and a non-trivial
   --explain text. *)
let test_catalogue () =
  Alcotest.(check bool) "catalogue covers D, C, H, U and pseudo ids" true
    (List.for_all (fun id -> List.mem id Rules.ids)
       [ "D1"; "D2"; "D3"; "D4"; "D5"; "C1"; "C2"; "H1"; "H2"; "H3"; "H4"; "U1"; "E0"; "E1" ]);
  List.iter
    (fun id ->
      match Rules.explain id with
      | Some text ->
        Alcotest.(check bool)
          (Printf.sprintf "%s explain is substantial" id)
          true
          (String.length text > 80)
      | None -> Alcotest.fail (Printf.sprintf "no explain for %s" id))
    Rules.ids;
  Alcotest.(check bool) "unknown rules have no explain" true
    (Rules.explain "Z9" = None)

(* Field access on the SARIF log read back; a missing or mistyped
   field fails the test. *)
let get name json =
  match Json.member name json with Some v -> v | None -> Alcotest.failf "missing field %S" name

let get_string name json =
  match get name json with J.String s -> s | _ -> Alcotest.failf "field %S is not a string" name

let get_int name json =
  match get name json with J.Int i -> i | _ -> Alcotest.failf "field %S is not an integer" name

let get_list name json =
  match get name json with J.List l -> l | _ -> Alcotest.failf "field %S is not a list" name

let check_level where level =
  if not (List.mem level [ "error"; "warning"; "note" ]) then
    Alcotest.failf "%s: bad level %S" where level

let check_text where text = if text = "" then Alcotest.failf "%s is empty" where

(* The SARIF log, read back, holds what a SARIF 2.1.0 consumer needs:
   one run, a rule table listing every id a run can emit, and results
   whose ruleIds resolve into it, each with one well-formed region. The
   log of the real tree holds no result, so the bad fixtures supply
   them: at least one under every rule of the catalogue. *)
let test_sarif () =
  let bad =
    Sys.readdir (Filename.dirname (fixture "d1_bad.ml"))
    |> Array.to_list |> List.sort String.compare
    |> List.filter (Driver.contains ~sub:"_bad")
  in
  let findings = List.concat_map (fun name -> (lint name).Driver.findings) bad in
  let json =
    match Json.of_string (Sarif.to_string findings) with
    | Ok json -> json
    | Error msg -> Alcotest.failf "SARIF output is not valid JSON: %s" msg
  in
  Alcotest.(check string) "version" "2.1.0" (get_string "version" json);
  check_text "$schema" (get_string "$schema" json);
  let run =
    match get_list "runs" json with
    | [ run ] -> run
    | runs -> Alcotest.failf "expected exactly one run, got %d" (List.length runs)
  in
  let tool = get "driver" (get "tool" run) in
  Alcotest.(check string) "tool.driver.name" "xlint" (get_string "name" tool);
  let rule_ids =
    List.map
      (fun rule ->
        let id = get_string "id" rule in
        check_text (id ^ " shortDescription") (get_string "text" (get "shortDescription" rule));
        check_text (id ^ " fullDescription") (get_string "text" (get "fullDescription" rule));
        check_level (id ^ " defaultConfiguration") (get_string "level" (get "defaultConfiguration" rule));
        id)
      (get_list "rules" tool)
  in
  Alcotest.(check (list string)) "rule table covers every emittable id" Rules.ids rule_ids;
  let results = get_list "results" run in
  Alcotest.(check int) "one result per finding" (List.length findings) (List.length results);
  let result_ids =
    List.map
      (fun result ->
        let rule = get_string "ruleId" result in
        if not (List.mem rule rule_ids) then
          Alcotest.failf "result ruleId %S not in the rule table" rule;
        check_level ("result " ^ rule) (get_string "level" result);
        check_text ("result " ^ rule ^ " message") (get_string "text" (get "message" result));
        (match get_list "locations" result with
        | [ loc ] ->
          let phys = get "physicalLocation" loc in
          check_text ("result " ^ rule ^ " uri") (get_string "uri" (get "artifactLocation" phys));
          let region = get "region" phys in
          let line = get_int "startLine" region and col = get_int "startColumn" region in
          let end_line = get_int "endLine" region in
          if line < 1 || col < 1 || end_line < line then
            Alcotest.failf "result %s: bad region %d:%d to line %d" rule line col end_line
        | locs -> Alcotest.failf "result %s: expected one location, got %d" rule (List.length locs));
        rule)
      results
  in
  List.iter
    (fun (r : Rule.t) ->
      if not (List.mem r.Rule.id result_ids) then Alcotest.failf "no result under %s" r.Rule.id)
    Rules.all

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "D1 global randomness" `Quick test_d1;
        Alcotest.test_case "D2 hash-order escape" `Quick test_d2;
        Alcotest.test_case "D3 wall-clock in lib/" `Quick test_d3;
        Alcotest.test_case "D4 polymorphic compare" `Quick test_d4;
        Alcotest.test_case "D4 typed precision" `Quick test_d4_typed;
        Alcotest.test_case "D5 ignored Result" `Quick test_d5;
        Alcotest.test_case "C clock discipline" `Quick test_c_rules;
        Alcotest.test_case "H hot-path allocation" `Quick test_h_rules;
        Alcotest.test_case "U1 unused exports" `Quick test_u1;
        Alcotest.test_case "suppression pragmas" `Quick test_pragmas;
        Alcotest.test_case "parse errors become findings" `Quick test_parse_error;
        Alcotest.test_case "untyped files become E1 findings" `Quick test_untyped;
        Alcotest.test_case "rule catalogue metadata" `Quick test_catalogue;
        Alcotest.test_case "SARIF export shape" `Quick test_sarif;
      ] );
  ]
