module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Event = Xheal_adversary.Event
module Strategy = Xheal_adversary.Strategy
module Driver = Xheal_adversary.Driver

let rng () = Random.State.make [| 53 |]

let test_random_delete_validity () =
  let s = Strategy.random_delete ~rng:(rng ()) () in
  let g = Gen.cycle 10 in
  for _ = 1 to 20 do
    match s.Strategy.next g with
    | Some (Event.Delete v) -> Alcotest.(check bool) "existing node" true (Graph.has_node g v)
    | _ -> Alcotest.fail "expected a deletion"
  done

let test_min_nodes_floor () =
  let s = Strategy.random_delete ~rng:(rng ()) () in
  Alcotest.(check bool) "deletes at the floor" true (s.Strategy.next (Gen.cycle 4) <> None);
  Alcotest.(check bool) "stops below floor" true (s.Strategy.next (Gen.cycle 3) = None)

let test_hub_targets_max_degree () =
  let s = Strategy.hub_delete ~rng:(rng ()) () in
  match s.Strategy.next (Gen.star 8) with
  | Some (Event.Delete 0) -> ()
  | _ -> Alcotest.fail "hub attack must pick the center"

let test_min_degree_targets_leaf () =
  let s = Strategy.min_degree_delete ~rng:(rng ()) () in
  match s.Strategy.next (Gen.star 8) with
  | Some (Event.Delete v) -> Alcotest.(check bool) "a leaf" true (v >= 1)
  | _ -> Alcotest.fail "expected deletion"

let test_cutpoint_prefers_articulation () =
  let s = Strategy.cutpoint_delete ~rng:(rng ()) () in
  (* bowtie: node 2 is the unique articulation point *)
  let bowtie = Graph.of_edges [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  (match s.Strategy.next bowtie with
  | Some (Event.Delete 2) -> ()
  | _ -> Alcotest.fail "must target the cut vertex");
  (* biconnected fallback: still produces a deletion *)
  match s.Strategy.next (Gen.cycle 6) with
  | Some (Event.Delete _) -> ()
  | _ -> Alcotest.fail "fallback expected"

let test_bottleneck_targets_cut () =
  (* Barbell: two K5s joined by the edge 0-5; the sweep cut is the
     bridge, so the adversary must delete node 0 or 5. *)
  let g = Gen.complete 5 in
  let h = Gen.relabel ~offset:5 (Gen.complete 5) in
  Graph.union_into ~dst:g h;
  ignore (Graph.add_edge g 0 5);
  let s = Strategy.bottleneck_delete ~rng:(rng ()) () in
  (match s.Strategy.next g with
  | Some (Event.Delete v) -> Alcotest.(check bool) "bridge endpoint" true (v = 0 || v = 5)
  | _ -> Alcotest.fail "expected deletion");
  (* Disconnected fallback still yields a legal move. *)
  let disc = Graph.of_edges ~nodes:[ 9 ] [ (0, 1); (1, 2); (2, 3) ] in
  match s.Strategy.next disc with
  | Some (Event.Delete v) -> Alcotest.(check bool) "existing node" true (Graph.has_node disc v)
  | _ -> Alcotest.fail "expected deletion"

let test_churn_fresh_ids () =
  let s = Strategy.churn ~insert_prob:1.0 ~rng:(rng ()) ~first_id:100 () in
  let g = Gen.cycle 6 in
  (match s.Strategy.next g with
  | Some (Event.Insert { node; neighbors }) ->
    Alcotest.(check int) "first id" 100 node;
    Alcotest.(check bool) "attach to existing" true
      (List.for_all (Graph.has_node g) neighbors);
    Alcotest.(check bool) "distinct attachments" true
      (List.length (List.sort_uniq Int.compare neighbors) = List.length neighbors)
  | _ -> Alcotest.fail "expected insert");
  match s.Strategy.next g with
  | Some (Event.Insert { node; _ }) -> Alcotest.(check int) "ids count up" 101 node
  | _ -> Alcotest.fail "expected insert"

let test_scripted_and_limited () =
  let s = Strategy.scripted [ Event.Delete 1; Event.Delete 2 ] in
  let g = Gen.cycle 5 in
  Alcotest.(check bool) "first" true (s.Strategy.next g = Some (Event.Delete 1));
  Alcotest.(check bool) "second" true (s.Strategy.next g = Some (Event.Delete 2));
  Alcotest.(check bool) "exhausted" true (s.Strategy.next g = None);
  (* The driver's step budget limits a script: the rest stays queued. *)
  let d = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng:(rng ()) (Gen.cycle 8) in
  let s = Strategy.scripted [ Event.Delete 0; Event.Delete 4; Event.Delete 6 ] in
  Alcotest.(check int) "one allowed" 1 (Driver.run d s ~steps:1);
  Alcotest.(check bool) "then cut off" true (Graph.has_node (Driver.graph d) 4);
  Alcotest.(check bool) "script resumes" true (s.Strategy.next g = Some (Event.Delete 4))

let test_driver_gprime_semantics () =
  let d = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng:(rng ()) (Gen.cycle 6) in
  Driver.apply d (Event.Insert { node = 50; neighbors = [ 0; 1 ] });
  Alcotest.(check int) "gprime gained node" 7 (Graph.num_nodes (Driver.gprime d));
  Alcotest.(check int) "gprime gained edges" 8 (Graph.num_edges (Driver.gprime d));
  Driver.apply d (Event.Delete 0);
  Alcotest.(check int) "gprime unchanged by deletion" 7 (Graph.num_nodes (Driver.gprime d));
  Alcotest.(check bool) "healed graph lost the node" false (Graph.has_node (Driver.graph d) 0);
  Alcotest.(check int) "counters" 2 (Driver.steps d);
  Alcotest.(check int) "deletion counter" 1 (Driver.deletions d)

let test_driver_run_stops_on_none () =
  let d = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng:(rng ()) (Gen.cycle 6) in
  let s = Strategy.scripted [ Event.Delete 0 ] in
  let applied = Driver.run d s ~steps:10 in
  Alcotest.(check int) "stopped after script" 1 applied

let prop_driver_any_strategy_sound =
  QCheck.Test.make ~name:"driver keeps healed nodes a subset of G' nodes" ~count:20
    QCheck.(int_range 0 500)
    (fun seed ->
      let r = Random.State.make [| seed |] in
      let d = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng:r (Gen.connected_er ~rng:r 12 0.3) in
      let s = Strategy.churn ~rng:r ~first_id:900 () in
      ignore (Driver.run d s ~steps:30);
      List.for_all (Graph.has_node (Driver.gprime d)) (Graph.nodes (Driver.graph d)))

let suite =
  [
    ( "adversary",
      [
        Alcotest.test_case "random delete validity" `Quick test_random_delete_validity;
        Alcotest.test_case "min-nodes floor" `Quick test_min_nodes_floor;
        Alcotest.test_case "hub targeting" `Quick test_hub_targets_max_degree;
        Alcotest.test_case "min-degree targeting" `Quick test_min_degree_targets_leaf;
        Alcotest.test_case "cutpoint targeting" `Quick test_cutpoint_prefers_articulation;
        Alcotest.test_case "bottleneck targeting" `Quick test_bottleneck_targets_cut;
        Alcotest.test_case "churn fresh ids" `Quick test_churn_fresh_ids;
        Alcotest.test_case "scripted + limited" `Quick test_scripted_and_limited;
        Alcotest.test_case "driver G' semantics" `Quick test_driver_gprime_semantics;
        Alcotest.test_case "driver stops on None" `Quick test_driver_run_stops_on_none;
        QCheck_alcotest.to_alcotest prop_driver_any_strategy_sound;
      ] );
  ]
