module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Expansion = Xheal_metrics.Expansion
module Degree = Xheal_metrics.Degree
module Stretch = Xheal_metrics.Stretch
module Table = Xheal_metrics.Table

let checkf = Alcotest.(check (float 1e-9))

let test_expansion_measure () =
  let m = Expansion.measure (Gen.complete 8) in
  Alcotest.(check bool) "exact available" true (m.Expansion.exact_h <> None);
  checkf "exact value" 4.0 (Expansion.best_h m);
  Alcotest.(check bool) "connected" true m.Expansion.connected;
  let big = Expansion.measure (Gen.cycle 40) in
  Alcotest.(check bool) "sweep fallback" true (big.Expansion.exact_h = None);
  (* Sweep on a cycle with the Fiedler vector finds the optimal-ish cut. *)
  Alcotest.(check bool) "sweep near 0.1" true (Expansion.best_h big <= 0.21)

let test_guarantee_ok () =
  let healed = Expansion.measure (Gen.complete 8) in
  let weak = Expansion.measure (Gen.path 8) in
  Alcotest.(check bool) "strong vs weak" true (Expansion.guarantee_ok ~healed ~reference:weak);
  Alcotest.(check bool) "weak vs strong fails" false
    (Expansion.guarantee_ok ~healed:weak ~reference:healed)

let test_degree_report () =
  (* healed star vs reference path: hub degree 4 vs reference degree <=2 *)
  let healed = Gen.star 5 in
  let reference = Gen.path 5 in
  let r = Degree.report ~kappa:1 ~healed ~reference in
  Alcotest.(check int) "survivors" 5 r.Degree.survivors;
  Alcotest.(check (option int)) "worst node is the hub" (Some 0) r.Degree.worst_node;
  Alcotest.(check (float 1e-9)) "ratio 4/1" 4.0 r.Degree.max_ratio;
  Alcotest.(check int) "slack 4 - 1*1" 3 r.Degree.max_additive_slack;
  Alcotest.(check bool) "within 2k of k*deg'" false r.Degree.bound_ok;
  let r2 = Degree.report ~kappa:4 ~healed ~reference in
  Alcotest.(check bool) "looser kappa ok" true r2.Degree.bound_ok

let test_degree_ignores_dead_nodes () =
  let healed = Gen.path 3 in
  let reference = Gen.star 9 in
  (* nodes 3..8 exist only in the reference; they are not survivors *)
  let r = Degree.report ~kappa:1 ~healed ~reference in
  Alcotest.(check int) "survivors counted" 3 r.Degree.survivors

let test_stretch_identity () =
  let g = Gen.grid 4 4 in
  let r = Stretch.report ~healed:g ~reference:g () in
  Alcotest.(check (float 1e-9)) "same graph: stretch 1" 1.0 r.Stretch.max_stretch;
  Alcotest.(check bool) "pairs checked" true (r.Stretch.pairs_checked > 0)

let test_stretch_detour () =
  (* Reference: cycle 0-1-2-3-0. Healed: path (edge 0-3 removed):
     dist(0,3) goes 1 -> 3. *)
  let reference = Gen.cycle 4 in
  let healed = Gen.path 4 in
  let r = Stretch.report ~healed ~reference () in
  Alcotest.(check (float 1e-9)) "stretch 3" 3.0 r.Stretch.max_stretch;
  Alcotest.(check bool) "worst pair is (0,3)" true (r.Stretch.worst_pair = Some (0, 3) || r.Stretch.worst_pair = Some (3, 0))

let test_stretch_infinite_on_disconnect () =
  let reference = Gen.path 3 in
  let healed = Graph.of_edges ~nodes:[ 0; 1; 2 ] [ (0, 1) ] in
  let r = Stretch.report ~healed ~reference () in
  Alcotest.(check (float 1e-9)) "infinite" infinity r.Stretch.max_stretch

let test_stretch_ignores_reference_unreachable () =
  (* Pair disconnected in the reference graph constrains nothing. *)
  let reference = Graph.of_edges ~nodes:[ 2 ] [ (0, 1) ] in
  let healed = Graph.of_edges [ (0, 1); (1, 2) ] in
  let r = Stretch.report ~healed ~reference () in
  Alcotest.(check (float 1e-9)) "finite" 1.0 r.Stretch.max_stretch

let prop_stretch_at_least_one =
  QCheck.Test.make ~name:"stretch >= 1 when healed is a subgraph of reference" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let reference = Gen.connected_er ~rng 14 0.35 in
      (* Remove a random non-bridge edge set to get a sparser healed graph. *)
      let healed = Graph.copy reference in
      List.iter
        (fun e ->
          if Random.State.bool rng then begin
            let u = Xheal_graph.Edge.src e and v = Xheal_graph.Edge.dst e in
            ignore (Graph.remove_edge healed u v);
            if not (Xheal_graph.Traversal.is_connected healed) then
              ignore (Graph.add_edge healed u v)
          end)
        (Graph.edges reference);
      let s = Stretch.max_stretch ~healed ~reference () in
      s >= 1.0 -. 1e-9)

let prop_adding_edges_never_hurts_stretch =
  QCheck.Test.make ~name:"adding healed edges never increases stretch" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let reference = Gen.connected_er ~rng 12 0.3 in
      let healed = Graph.copy reference in
      let s0 = Stretch.max_stretch ~healed ~reference () in
      (* Densify. *)
      let ns = Graph.nodes healed in
      List.iter
        (fun u ->
          List.iter (fun v -> if u < v && Random.State.bool rng then ignore (Graph.add_edge healed u v)) ns)
        ns;
      let s1 = Stretch.max_stretch ~healed ~reference () in
      s1 <= s0 +. 1e-9)

let prop_expansion_bounds_consistent =
  QCheck.Test.make ~name:"exact h <= sweep h and cheeger sandwich holds" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.connected_er ~rng 12 0.3 in
      let m = Expansion.measure g in
      match (m.Expansion.exact_h, m.Expansion.exact_phi) with
      | Some h, Some phi ->
        h <= m.Expansion.sweep_h +. 1e-9
        && phi <= m.Expansion.sweep_phi +. 1e-9
        (* Theorem 1: 2*phi >= lambda_norm >= phi^2/2. *)
        && 2.0 *. phi +. 1e-6 >= m.Expansion.lambda2_normalized
        && m.Expansion.lambda2_normalized +. 1e-6 >= phi *. phi /. 2.0
      | _ -> false)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Alcotest.(check bool) "contains rule" true (String.length s > 0 && String.contains s '-');
  (* Right-aligned numeric column. *)
  Alcotest.(check bool) "alignment" true
    (List.exists (fun line -> line = "  x    1") (String.split_on_char '\n' s));
  Alcotest.(check string) "float fmt" "1.500" (Table.fmt_float 1.5);
  Alcotest.(check string) "inf fmt" "inf" (Table.fmt_float infinity);
  Alcotest.(check string) "ratio fmt" "2.50x" (Table.fmt_ratio 2.5)

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "only" ] ] in
  Alcotest.(check bool) "no exception and rendered" true (String.length s > 0)

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "expansion measure" `Quick test_expansion_measure;
        Alcotest.test_case "guarantee predicate" `Quick test_guarantee_ok;
        Alcotest.test_case "degree report" `Quick test_degree_report;
        Alcotest.test_case "degree ignores dead nodes" `Quick test_degree_ignores_dead_nodes;
        Alcotest.test_case "stretch identity" `Quick test_stretch_identity;
        Alcotest.test_case "stretch detour" `Quick test_stretch_detour;
        Alcotest.test_case "stretch infinite on disconnect" `Quick test_stretch_infinite_on_disconnect;
        Alcotest.test_case "stretch ignores G'-unreachable" `Quick test_stretch_ignores_reference_unreachable;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
        QCheck_alcotest.to_alcotest prop_stretch_at_least_one;
        QCheck_alcotest.to_alcotest prop_adding_edges_never_hurts_stretch;
        QCheck_alcotest.to_alcotest prop_expansion_bounds_consistent;
      ] );
  ]
