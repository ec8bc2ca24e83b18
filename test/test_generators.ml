module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal
module Gen = Xheal_graph.Generators

let rng () = Random.State.make [| 77 |]

let test_basic_families () =
  Alcotest.(check int) "path edges" 9 (Graph.num_edges (Gen.path 10));
  Alcotest.(check int) "cycle edges" 10 (Graph.num_edges (Gen.cycle 10));
  Alcotest.(check int) "cycle 2 degrades to edge" 1 (Graph.num_edges (Gen.cycle 2));
  Alcotest.(check int) "star edges" 9 (Graph.num_edges (Gen.star 10));
  Alcotest.(check int) "clique edges" 45 (Graph.num_edges (Gen.complete 10));
  Alcotest.(check int) "bipartite edges" 12 (Graph.num_edges (Gen.complete_bipartite 3 4));
  Alcotest.(check int) "grid edges" (2 * 3 * 4 - 3 - 4) (Graph.num_edges (Gen.grid 3 4));
  Alcotest.(check int) "empty graph nodes" 6 (Graph.num_nodes (Gen.empty 6));
  Alcotest.(check int) "empty graph edges" 0 (Graph.num_edges (Gen.empty 6))

let test_hypercube () =
  let q4 = Gen.hypercube 4 in
  Alcotest.(check int) "nodes" 16 (Graph.num_nodes q4);
  Alcotest.(check int) "edges" 32 (Graph.num_edges q4);
  Alcotest.(check int) "regular degree" 4 (Graph.min_degree q4);
  Alcotest.(check int) "regular degree max" 4 (Graph.max_degree q4);
  Alcotest.(check bool) "connected" true (Traversal.is_connected q4)

let test_binary_tree () =
  let t = Gen.binary_tree 15 in
  Alcotest.(check int) "edges" 14 (Graph.num_edges t);
  Alcotest.(check bool) "connected" true (Traversal.is_connected t);
  Alcotest.(check int) "root degree" 2 (Graph.degree t 0);
  Alcotest.(check (list int)) "cuts are internal nodes" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Traversal.articulation_points t)

let test_random_regular () =
  let g = Gen.random_regular ~rng:(rng ()) 20 4 in
  Alcotest.(check int) "nodes" 20 (Graph.num_nodes g);
  Alcotest.(check int) "min degree" 4 (Graph.min_degree g);
  Alcotest.(check int) "max degree" 4 (Graph.max_degree g);
  Alcotest.check_raises "odd n*d" (Invalid_argument "Generators.random_regular: n*d must be even")
    (fun () -> ignore (Gen.random_regular ~rng:(rng ()) 5 3));
  Alcotest.check_raises "d too large" (Invalid_argument "Generators.random_regular: need d < n")
    (fun () -> ignore (Gen.random_regular ~rng:(rng ()) 4 4))

let test_er () =
  let g0 = Gen.erdos_renyi ~rng:(rng ()) 12 0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.num_edges g0);
  let g1 = Gen.erdos_renyi ~rng:(rng ()) 12 1.0 in
  Alcotest.(check int) "p=1 complete" 66 (Graph.num_edges g1);
  let gc = Gen.connected_er ~rng:(rng ()) 30 0.1 in
  Alcotest.(check bool) "conditioned on connectivity" true (Traversal.is_connected gc);
  (* At p <= 0 or NaN resampling never connects anything, so these
     would loop forever; above 1 the parameter is meaningless. *)
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "connected_er p=%g" p)
        (Invalid_argument "Generators.connected_er: p must be in (0, 1]") (fun () ->
          ignore (Gen.connected_er ~rng:(rng ()) 10 p)))
    [ 0.0; -0.5; Float.nan; 1.5 ];
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "erdos_renyi p=%g" p)
        (Invalid_argument "Generators.erdos_renyi: p must be in [0, 1]") (fun () ->
          ignore (Gen.erdos_renyi ~rng:(rng ()) 10 p)))
    [ -0.5; Float.nan; 1.5 ]

let test_random_h_graph () =
  let g = Gen.random_h_graph ~rng:(rng ()) 30 3 in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "degree at most 2d" true (Graph.max_degree g <= 6);
  Alcotest.(check bool) "degree at least 2" true (Graph.min_degree g >= 2);
  Alcotest.check_raises "too small" (Invalid_argument "Generators.random_h_graph: need n >= 3")
    (fun () -> ignore (Gen.random_h_graph ~rng:(rng ()) 2 1));
  Alcotest.check_raises "no cycles" (Invalid_argument "Generators.random_h_graph: d must be >= 1")
    (fun () -> ignore (Gen.random_h_graph ~rng:(rng ()) 10 0))

let test_preferential_attachment () =
  let g = Gen.preferential_attachment ~rng:(rng ()) 50 3 in
  Alcotest.(check int) "nodes" 50 (Graph.num_nodes g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "heavy tail exists" true (Graph.max_degree g >= 6);
  Alcotest.check_raises "no attachments"
    (Invalid_argument "Generators.preferential_attachment: k must be >= 1") (fun () ->
      ignore (Gen.preferential_attachment ~rng:(rng ()) 10 0));
  Alcotest.check_raises "negative k"
    (Invalid_argument "Generators.preferential_attachment: k must be >= 1") (fun () ->
      ignore (Gen.preferential_attachment ~rng:(rng ()) 10 (-2)));
  (* The seed clique has 2 nodes, so n < 2 would silently return 2. *)
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "n = %d" n)
        (Invalid_argument "Generators.preferential_attachment: n must be >= 2") (fun () ->
          ignore (Gen.preferential_attachment ~rng:(rng ()) n 1)))
    [ 0; 1 ];
  Alcotest.(check int) "n = 2 is the seed clique" 2
    (Graph.num_nodes (Gen.preferential_attachment ~rng:(rng ()) 2 1))

let test_margulis () =
  let g = Gen.margulis 5 in
  Alcotest.(check int) "m^2 nodes" 25 (Graph.num_nodes g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "at most 8-regular" true (Graph.max_degree g <= 8);
  Alcotest.check_raises "m too small" (Invalid_argument "Generators.margulis: need m >= 2")
    (fun () -> ignore (Gen.margulis 1))

let test_margulis_uniform_gap () =
  (* The deterministic expander family keeps a spectral gap bounded away
     from zero as it grows — the defining property. *)
  let gaps =
    List.map (fun m -> Xheal_linalg.Spectral.lambda2 (Gen.margulis m)) [ 4; 7; 10; 16 ]
  in
  List.iter (fun l2 -> Alcotest.(check bool) "gap bounded below" true (l2 > 0.5)) gaps

let test_relabel () =
  let g = Gen.path 4 in
  let g' = Gen.relabel ~offset:100 g in
  Alcotest.(check (list int)) "shifted nodes" [ 100; 101; 102; 103 ] (Graph.nodes g');
  Alcotest.(check bool) "shifted edge" true (Graph.has_edge g' 100 101)

let prop_regular_always_regular =
  QCheck.Test.make ~name:"random_regular is regular for feasible params" ~count:25
    QCheck.(pair (int_range 2 6) (int_range 8 24))
    (fun (d, n) ->
      let n = if n * d mod 2 = 1 then n + 1 else n in
      QCheck.assume (d < n);
      let g = Gen.random_regular ~rng:(Random.State.make [| n; d |]) n d in
      Graph.min_degree g = d && Graph.max_degree g = d)

let suite =
  [
    ( "generators",
      [
        Alcotest.test_case "basic families" `Quick test_basic_families;
        Alcotest.test_case "hypercube" `Quick test_hypercube;
        Alcotest.test_case "binary tree" `Quick test_binary_tree;
        Alcotest.test_case "random regular" `Quick test_random_regular;
        Alcotest.test_case "erdos-renyi" `Quick test_er;
        Alcotest.test_case "random H-graph" `Quick test_random_h_graph;
        Alcotest.test_case "preferential attachment" `Quick test_preferential_attachment;
        Alcotest.test_case "margulis expander" `Quick test_margulis;
        Alcotest.test_case "margulis uniform gap" `Quick test_margulis_uniform_gap;
        Alcotest.test_case "relabel" `Quick test_relabel;
        QCheck_alcotest.to_alcotest prop_regular_always_regular;
      ] );
  ]
