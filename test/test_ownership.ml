module Graph = Xheal_graph.Graph
module Own = Xheal_core.Ownership

let check_own t =
  match Own.check t with Ok () -> () | Error e -> Alcotest.failf "ownership broken: %s" e

let test_black_edges () =
  let t = Own.create () in
  Own.add_black t 1 2;
  Alcotest.(check bool) "edge exists" true (Graph.has_edge (Own.graph t) 1 2);
  Alcotest.(check bool) "is black" true (Own.is_black t 2 1);
  Own.remove_black t 1 2;
  Alcotest.(check bool) "edge gone when unowned" false (Graph.has_edge (Own.graph t) 1 2);
  check_own t

let test_cloud_edges () =
  let t = Own.create () in
  Own.add_cloud_edge t ~cloud:7 1 2;
  Alcotest.(check bool) "not black" false (Own.is_black t 1 2);
  Alcotest.(check (list int)) "owners" [ 7 ] (Own.cloud_owners t 1 2);
  Own.add_cloud_edge t ~cloud:9 1 2;
  Alcotest.(check (list int)) "two owners" [ 7; 9 ] (Own.cloud_owners t 1 2);
  Own.remove_cloud_edge t ~cloud:7 1 2;
  Alcotest.(check bool) "still alive (9 owns it)" true (Graph.has_edge (Own.graph t) 1 2);
  Own.remove_cloud_edge t ~cloud:9 1 2;
  Alcotest.(check bool) "dead when last owner leaves" false (Graph.has_edge (Own.graph t) 1 2);
  List.iter (fun cloud -> Own.add_cloud_edge t ~cloud 3 4) [ 9; 7; 9 ];
  Alcotest.(check (list int)) "sorted, no repeats" [ 7; 9 ] (Own.cloud_owners t 4 3);
  check_own t

let test_black_plus_cloud () =
  let t = Own.create () in
  Own.add_black t 1 2;
  Own.add_cloud_edge t ~cloud:3 1 2;
  Own.remove_black t 1 2;
  Alcotest.(check bool) "cloud keeps it alive" true (Graph.has_edge (Own.graph t) 1 2);
  Own.remove_cloud_edge t ~cloud:3 1 2;
  Alcotest.(check bool) "now gone" false (Graph.has_edge (Own.graph t) 1 2);
  check_own t

let test_black_neighbors () =
  let t = Own.create () in
  Own.add_black t 0 1;
  Own.add_black t 0 2;
  Own.add_cloud_edge t ~cloud:1 0 3;
  Alcotest.(check (list int)) "black only" [ 1; 2 ] (Own.black_neighbors t 0);
  Alcotest.(check int) "black degree" 2 (Own.black_degree t 0);
  Alcotest.(check int) "graph degree includes cloud" 3 (Graph.degree (Own.graph t) 0)

let test_remove_node () =
  let t = Own.create () in
  Own.add_black t 0 1;
  Own.add_cloud_edge t ~cloud:1 0 2;
  Own.add_black t 1 2;
  Own.remove_node t 0;
  Alcotest.(check bool) "node gone" false (Graph.has_node (Own.graph t) 0);
  Alcotest.(check int) "only 1-2 left" 1 (Graph.num_edges (Own.graph t));
  Alcotest.(check bool) "surviving edge black" true (Own.is_black t 1 2);
  check_own t

let test_of_black_graph () =
  let g = Xheal_graph.Generators.cycle 5 in
  let t = Own.of_black_graph g in
  Alcotest.(check bool) "copied" true (Graph.equal g (Own.graph t));
  Alcotest.(check bool) "all black" true (Own.is_black t 0 1);
  (* Independent of the source graph. *)
  Graph.remove_node g 0;
  Alcotest.(check bool) "independent" true (Graph.has_node (Own.graph t) 0);
  check_own t

let test_idempotent_removals () =
  let t = Own.create () in
  Own.remove_black t 4 5;
  Own.remove_cloud_edge t ~cloud:1 4 5;
  Own.add_black t 4 5;
  Own.remove_cloud_edge t ~cloud:1 4 5;
  Alcotest.(check bool) "black untouched by stranger cloud removal" true (Own.is_black t 4 5);
  check_own t

let suite =
  [
    ( "ownership",
      [
        Alcotest.test_case "black edges" `Quick test_black_edges;
        Alcotest.test_case "cloud edges" `Quick test_cloud_edges;
        Alcotest.test_case "black + cloud coexistence" `Quick test_black_plus_cloud;
        Alcotest.test_case "black neighbours" `Quick test_black_neighbors;
        Alcotest.test_case "remove node" `Quick test_remove_node;
        Alcotest.test_case "of_black_graph" `Quick test_of_black_graph;
        Alcotest.test_case "idempotent removals" `Quick test_idempotent_removals;
      ] );
  ]
