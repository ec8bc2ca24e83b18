(* Coverage for the smaller utility modules: DOT export, engine
   configuration, and the introspection API. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Dot = Xheal_graph.Dot
module Edge = Xheal_graph.Edge
module Config = Xheal_core.Config
module Cost = Xheal_core.Cost
module Xheal = Xheal_core.Xheal
module Cloud = Xheal_core.Cloud

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---------- DOT ---------- *)

let test_dot_basic () =
  let g = Gen.path 3 in
  let s = Dot.to_dot ~name:"p3" g in
  Alcotest.(check bool) "graph header" true (contains ~needle:"graph p3 {" s);
  Alcotest.(check bool) "edge rendered" true (contains ~needle:"0 -- 1;" s);
  Alcotest.(check bool) "all nodes rendered" true
    (contains ~needle:"\n  2;" s || contains ~needle:"  2;" s)

let test_dot_attrs_and_quoting () =
  let g = Gen.path 2 in
  let s =
    Dot.to_dot
      ~node_attrs:(fun u -> [ ("label", Printf.sprintf "n%d \"q\"" u) ])
      ~edge_attrs:(fun _ -> [ ("color", "red") ])
      g
  in
  Alcotest.(check bool) "node attr" true (contains ~needle:"label=" s);
  Alcotest.(check bool) "edge attr" true (contains ~needle:"[color=\"red\"]" s);
  Alcotest.(check bool) "quotes escaped" true (contains ~needle:"\\\"q\\\"" s)

let test_dot_write_file () =
  let path = Filename.temp_file "xheal_dot" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dot.write_file path (Gen.cycle 4);
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check bool) "non-empty file" true (len > 20))

(* ---------- Config ---------- *)

let test_config () =
  Alcotest.(check int) "default kappa" 4 (Config.kappa Config.default);
  Alcotest.(check int) "with_d" 6 (Config.kappa (Config.with_d 3 Config.default));
  Alcotest.(check bool) "valid default" true (Config.validate Config.default = Ok ());
  Alcotest.(check bool) "invalid d" true
    (Result.is_error (Config.validate (Config.with_d 0 Config.default)));
  let s = Format.asprintf "%a" Config.pp Config.default in
  Alcotest.(check bool) "pp mentions kappa" true (contains ~needle:"kappa=4" s)

let test_cost_case_strings () =
  Alcotest.(check string) "batch label" "batch deletion (3 victims)"
    (Cost.case_to_string (Cost.Batch 3));
  Alcotest.(check string) "insertion label" "insertion" (Cost.case_to_string Cost.Insertion)

(* ---------- Engine introspection ---------- *)

let test_introspection () =
  let rng = Random.State.make [| 81 |] in
  let eng = Xheal.create ~rng (Gen.star 8) in
  Alcotest.(check bool) "initial edges black" true (Xheal.is_black_edge eng 0 1);
  Alcotest.(check (list int)) "no cloud owners yet" [] (Xheal.edge_cloud_owners eng 0 1);
  Xheal.delete eng 0;
  let c = List.hd (Xheal.clouds eng) in
  let members = Cloud.members c in
  let u = List.nth members 0 and v = List.nth members 1 in
  (* Some pair of cloud members carries the cloud color. *)
  let has_colored =
    List.exists
      (fun a ->
        List.exists (fun b -> a < b && Xheal.edge_cloud_owners eng a b = [ Cloud.id c ]) members)
      members
  in
  Alcotest.(check bool) "cloud-colored edge exists" true has_colored;
  ignore (u, v);
  Alcotest.(check bool) "find_cloud roundtrip" true
    (match Xheal.find_cloud eng (Cloud.id c) with
    | Some c' -> Cloud.id c' = Cloud.id c
    | None -> false);
  Alcotest.(check bool) "find_cloud missing" true (Xheal.find_cloud eng 999 = None);
  Alcotest.(check int) "clouds_of_node" 1
    (List.length (Xheal.clouds_of_node eng (List.hd members)))

let test_edge_ownership_view_consistency () =
  (* Every live edge is black, cloud-owned, or both — never neither. *)
  let rng = Random.State.make [| 83 |] in
  let eng = Xheal.create ~rng (Gen.connected_er ~rng 24 0.15) in
  for _ = 1 to 10 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    Xheal.delete eng (List.nth nodes (Random.State.int rng (List.length nodes)))
  done;
  Graph.iter_edges
    (fun e ->
      let u = Edge.src e and v = Edge.dst e in
      if (not (Xheal.is_black_edge eng u v)) && Xheal.edge_cloud_owners eng u v = [] then
        Alcotest.failf "unowned live edge %d--%d" u v)
    (Xheal.graph eng)

let suite =
  [
    ( "dot",
      [
        Alcotest.test_case "basic rendering" `Quick test_dot_basic;
        Alcotest.test_case "attributes and quoting" `Quick test_dot_attrs_and_quoting;
        Alcotest.test_case "write_file" `Quick test_dot_write_file;
      ] );
    ( "config",
      [
        Alcotest.test_case "config" `Quick test_config;
        Alcotest.test_case "cost case labels" `Quick test_cost_case_strings;
      ] );
    ( "introspection",
      [
        Alcotest.test_case "edge colors and cloud lookup" `Quick test_introspection;
        Alcotest.test_case "every edge is owned" `Quick test_edge_ownership_view_consistency;
      ] );
  ]
