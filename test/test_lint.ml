(* xlint unit tests over the fixture corpus in test/lint_fixtures/.
   The dune test stanza declares the fixtures as deps, so dune copies
   them beside the test binary, where [fixture] finds them whatever the
   working directory.  The complementary
   checks live in the @lint alias: the fixture self-test (every bad
   fixture fires, every good one is silent, every *_typed_* fixture
   really types) and the zero-findings run over the real tree, whose
   SARIF artifact sarif_check validates. *)

module Finding = Xheal_lint.Finding
module Rules = Xheal_lint.Rules
module Rules_d = Xheal_lint.Rules_d
module Driver = Xheal_lint.Driver
module Sarif = Xheal_lint.Sarif
module J = Xheal_obs.Jsonw

let fixture name =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "lint_fixtures") name

(* Lint a fixture as if it lived under lib/distributed/, where every
   rule is in scope. *)
let lint ?rules name =
  Driver.lint_file ?rules ~as_path:("lib/distributed/" ^ name) (fixture name)

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
  (* Typed precision: a sort that consumes a different value no longer
     exempts the fold — the syntactic fallback accepted it. *)
  check_findings "sort of another value does not exempt (typed)" [ ("D2", 8) ]
    "d2_bad_typed_sortother.ml";
  Alcotest.check finding_t "same fixture passes the syntactic fallback" []
    (rule_lines (lint ~rules:[ Rules_d.d2 ] "d2_bad_typed_sortother.ml").Driver.findings)

let test_d3 () =
  check_findings "wall-clock reads in lib/"
    [ ("D3", 2); ("D3", 3); ("D3", 4) ]
    "d3_bad.ml";
  check_findings "virtual clock only" [] "d3_good_virtual.ml";
  (* The same file outside lib/ is none of D3's business. *)
  Alcotest.check finding_t "bench may read the clock" []
    (rule_lines
       (Driver.lint_file ~as_path:"bench/d3_bad.ml" (fixture "d3_bad.ml")).Driver.findings)

let test_d4 () =
  check_findings "polymorphic compare and structured (=)"
    [ ("D4", 2); ("D4", 3); ("D4", 4) ]
    "d4_bad.ml";
  check_findings "dedicated comparators and atomic option tests" [] "d4_good.ml";
  (* D4 is scoped to the protocol layers. *)
  Alcotest.check finding_t "linalg is out of scope" []
    (rule_lines
       (Driver.lint_file ~as_path:"lib/linalg/d4_bad.ml" (fixture "d4_bad.ml")).Driver.findings)

(* The two PR-3 approximations the typed rules drop, each pinned
   against the syntactic variant on the same fixture. *)
let test_d4_typed () =
  (* compare at int: syntactic false positive, typed pass. *)
  check_findings "compare at int is exact (typed)" [] "d4_good_typed_int.ml";
  let syntactic =
    rule_lines (lint ~rules:[ Rules_d.d4 ] "d4_good_typed_int.ml").Driver.findings
  in
  Alcotest.(check bool) "the syntactic rule mis-flagged it" true (syntactic <> []);
  (* tuple-typed variables under (<=): syntactic false negative. *)
  check_findings "tuple-typed variables caught (typed)" [ ("D4", 3) ]
    "d4_bad_typed_pair.ml";
  Alcotest.check finding_t "the syntactic rule missed it" []
    (rule_lines (lint ~rules:[ Rules_d.d4 ] "d4_bad_typed_pair.ml").Driver.findings)

let test_d5 () =
  check_findings "ignored Results"
    [ ("D5", 3); ("D5", 4); ("D5", 5) ]
    "d5_bad.ml";
  check_findings "matched Result and benign ignore" [] "d5_good.ml";
  (* Typed: the callee's name no longer matters. *)
  check_findings "any ignored Result caught (typed)" [ ("D5", 6) ]
    "d5_bad_typed_anyname.ml";
  Alcotest.check finding_t "the syntactic name list missed it" []
    (rule_lines (lint ~rules:[ Rules_d.d5 ] "d5_bad_typed_anyname.ml").Driver.findings)

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
  let findings = (Driver.lint_file ~as_path:"lib/distributed/cold.ml" tmp).Driver.findings in
  Sys.remove tmp;
  Alcotest.check finding_t "no hot marker, no H findings" [] (rule_lines findings)

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

(* Every id a run can emit has a severity, a doc line and a non-trivial
   --explain text. *)
let test_catalogue () =
  Alcotest.(check bool) "catalogue covers D, C, H and pseudo ids" true
    (List.for_all (fun id -> List.mem id Rules.ids)
       [ "D1"; "D2"; "D3"; "D4"; "D5"; "C1"; "C2"; "H1"; "H2"; "H3"; "H4"; "E0" ]);
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

(* The SARIF export round-trips through the deterministic JSON layer
   with the shape sarif_check enforces. *)
let test_sarif () =
  let findings = (lint "d1_bad.ml").Driver.findings in
  Alcotest.(check bool) "fixture produced findings" true (findings <> []);
  match J.of_string (Sarif.to_string findings) with
  | Error msg -> Alcotest.fail ("SARIF output is not valid JSON: " ^ msg)
  | Ok json ->
    Alcotest.(check (option string)) "version" (Some "2.1.0")
      (match J.member "version" json with Some (J.String s) -> Some s | _ -> None);
    let runs = match J.member "runs" json with Some (J.List l) -> l | _ -> [] in
    (match runs with
    | [ run ] ->
      let results = match J.member "results" run with Some (J.List l) -> l | _ -> [] in
      Alcotest.(check int) "one result per finding" (List.length findings)
        (List.length results);
      let driver =
        match J.member "tool" run with
        | Some tool -> (match J.member "driver" tool with Some d -> d | None -> J.Null)
        | None -> J.Null
      in
      let rules = match J.member "rules" driver with Some (J.List l) -> l | _ -> [] in
      Alcotest.(check int) "rule table covers every emittable id"
        (List.length Rules.ids) (List.length rules)
    | _ -> Alcotest.fail "expected exactly one run")

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
        Alcotest.test_case "suppression pragmas" `Quick test_pragmas;
        Alcotest.test_case "parse errors become findings" `Quick test_parse_error;
        Alcotest.test_case "rule catalogue metadata" `Quick test_catalogue;
        Alcotest.test_case "SARIF export shape" `Quick test_sarif;
      ] );
  ]
