module Registry = Xheal_experiments.Registry
module Exp = Xheal_experiments.Exp

let test_registry_complete () =
  Alcotest.(check int) "nineteen experiments" 19 (List.length Registry.all);
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Alcotest.(check string) "id roundtrip" id e.Exp.id
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13"; "E14";
      "E15"; "E17"; "A1"; "A2"; "A3" ];
  Alcotest.(check bool) "case-insensitive" true (Registry.find "e3" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "E99" = None)

let run_quick id =
  match Registry.find id with
  | None -> Alcotest.failf "missing %s" id
  | Some e ->
    let r = e.Exp.run ~quick:true in
    Alcotest.(check bool) (id ^ " claim holds") true r.Exp.ok;
    Alcotest.(check bool) (id ^ " has a table") true (String.length r.Exp.table > 0);
    Alcotest.(check bool) (id ^ " has notes") true (r.Exp.notes <> [])

(* The fast experiments run as part of the unit suite; every experiment
   runs at quick size in @cli-smoke, whose `xheal_cli experiments --quick`
   output must equal bin/experiments_quick.expected. *)
let test_e2 () = run_quick "E2"
let test_e8 () = run_quick "E8"

let test_render_shape () =
  let e = List.hd Registry.all in
  let fake = { Exp.table = "T\n"; notes = [ "n1" ]; ok = true } in
  let s = Exp.render e fake in
  Alcotest.(check bool) "header present" true (String.length s > 10);
  Alcotest.(check bool) "note bullet" true
    (List.exists (fun l -> String.starts_with ~prefix:"  * " l) (String.split_on_char '\n' s))

let test_verdict_prefix () =
  Alcotest.(check string) "pass" "PASS: x" (Exp.note_verdict true "x");
  Alcotest.(check string) "fail" "FAIL: y" (Exp.note_verdict false "y")

let test_run_all_subset () =
  let buf = Buffer.create 256 in
  let ok = Registry.run_all ~quick:true ~ids:[ "E2" ] ~out:(Buffer.add_string buf) () in
  Alcotest.(check bool) "subset ok" true ok;
  Alcotest.(check bool) "output streamed" true (Buffer.length buf > 0)

(* A mistyped id fails the whole call before any experiment runs: the
   message names it and lists the valid ids. *)
let test_run_all_unknown_id () =
  let ran = ref false in
  match Registry.run_all ~quick:true ~ids:[ "E2"; "E99" ] ~out:(fun _ -> ran := true) () with
  | _ -> Alcotest.fail "unknown id accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "nothing ran" false !ran;
    List.iter
      (fun needle ->
        if not (Test_misc.contains ~needle msg) then
          Alcotest.failf "message %S does not mention %s" msg needle)
      [ "\"E99\""; "E1"; "E17"; "A3" ]

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "registry complete" `Quick test_registry_complete;
        Alcotest.test_case "E2 quick" `Slow test_e2;
        Alcotest.test_case "E8 quick" `Slow test_e8;
        Alcotest.test_case "render shape" `Quick test_render_shape;
        Alcotest.test_case "verdict prefix" `Quick test_verdict_prefix;
        Alcotest.test_case "run_all subset" `Slow test_run_all_subset;
        Alcotest.test_case "run_all rejects an unknown id" `Quick test_run_all_unknown_id;
      ] );
  ]
