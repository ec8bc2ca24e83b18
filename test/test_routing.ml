module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Edge = Xheal_graph.Edge
module Tables = Xheal_routing.Tables
module Congestion = Xheal_routing.Congestion
module Repair = Xheal_routing.Repair

(* ---------- Tables ---------- *)

let test_tables_path () =
  let t = Tables.build (Gen.path 5) in
  Alcotest.(check (option int)) "next hop forward" (Some 1) (Tables.next_hop t ~src:0 ~dst:4);
  Alcotest.(check (option int)) "next hop backward" (Some 3) (Tables.next_hop t ~src:4 ~dst:0);
  Alcotest.(check (option int)) "distance" (Some 4) (Tables.distance t ~src:0 ~dst:4);
  Alcotest.(check (option int)) "self distance" (Some 0) (Tables.distance t ~src:2 ~dst:2);
  Alcotest.(check (option (list int))) "full route" (Some [ 0; 1; 2; 3; 4 ])
    (Tables.route t ~src:0 ~dst:4)

let test_tables_disconnected () =
  let g = Support.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  let t = Tables.build g in
  Alcotest.(check (option int)) "no hop" None (Tables.next_hop t ~src:0 ~dst:9);
  Alcotest.(check (option (list int))) "no route" None (Tables.route t ~src:0 ~dst:9);
  Alcotest.(check int) "reachable pairs" 2 (Support.reachable_pairs t)

let test_tables_deterministic_ties () =
  (* Cycle of 4: route 0->2 has two shortest options; smallest-id hop wins. *)
  let t = Tables.build (Gen.cycle 4) in
  Alcotest.(check (option int)) "tie broken to 1" (Some 1) (Tables.next_hop t ~src:0 ~dst:2)

let test_tables_check () =
  let g = Gen.grid 4 4 in
  let t = Tables.build g in
  (match Support.check_tables t g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "table audit: %s" e);
  Alcotest.(check int) "all pairs reachable" (16 * 15) (Support.reachable_pairs t)

let prop_routes_are_shortest =
  QCheck.Test.make ~name:"table routes match BFS distances" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.connected_er ~rng 16 0.25 in
      let t = Tables.build g in
      List.for_all
        (fun s ->
          List.for_all
            (fun d ->
              Tables.distance t ~src:s ~dst:d = Support.distance g s d)
            (Graph.nodes g))
        (Graph.nodes g))

(* ---------- Congestion ---------- *)

let test_congestion_path () =
  (* Path 0-1-2-3: middle edge carries all 2x2 crossing pairs = 8. *)
  let r = Congestion.measure (Gen.path 4) in
  Alcotest.(check int) "pairs" 12 r.Congestion.pairs_routed;
  Alcotest.(check int) "middle edge load" 8 r.Congestion.max_load;
  Alcotest.(check bool) "busiest is the middle" true (r.Congestion.busiest = Some (Edge.make 1 2))

(* A 5-cycle over ids 3..7 loads every edge with 6 routes, so the busiest
   edge is a tie that goes to the least edge, whatever the load table's
   bucket order. *)
let test_congestion_cycle_tie () =
  let r = Congestion.measure (Support.of_edges [ (3, 4); (4, 5); (5, 6); (6, 7); (7, 3) ]) in
  Alcotest.(check int) "every edge's load" 6 r.Congestion.max_load;
  Alcotest.(check bool) "busiest is the least edge" true (r.Congestion.busiest = Some (Edge.make 3 4))

let test_congestion_star_vs_clique () =
  (* Star: every cross-leaf pair transits the hub; clique: load 2 per edge. *)
  let star = Congestion.measure (Gen.star 8) in
  let clique = Congestion.measure (Gen.complete 8) in
  Alcotest.(check int) "star hub edge load" (2 + (2 * 6)) star.Congestion.max_load;
  Alcotest.(check int) "clique spread" 2 clique.Congestion.max_load

(* ---------- Repair ---------- *)

let test_repair_counts () =
  (* Before: star with hub 0 over 1..6. After: Xheal-healed (hub gone). *)
  let before = Gen.star 7 in
  let rng = Random.State.make [| 91 |] in
  let eng = Xheal_core.Xheal.create ~rng before in
  Xheal_core.Xheal.delete eng 0;
  let after = Xheal_core.Xheal.graph eng in
  let r = Repair.measure ~before ~after in
  Alcotest.(check int) "survivors" 6 r.Repair.survivors;
  (* All 6*5 leaf pairs routed through the hub. *)
  Alcotest.(check int) "broken" 30 r.Repair.broken_routes;
  Alcotest.(check int) "all repaired" 30 r.Repair.repaired;
  Alcotest.(check int) "none lost" 0 r.Repair.lost;
  Alcotest.(check bool) "stretch bounded" true (r.Repair.max_reroute_stretch <= 2.0)

let test_repair_lost_routes () =
  let before = Gen.path 3 in
  (* no-heal deletion of the middle node loses the 0<->2 routes *)
  let after = Support.of_edges ~nodes:[ 0; 2 ] [] in
  let r = Repair.measure ~before ~after in
  Alcotest.(check int) "broken" 2 r.Repair.broken_routes;
  Alcotest.(check int) "lost" 2 r.Repair.lost;
  Alcotest.(check int) "repaired" 0 r.Repair.repaired

let prop_repair_consistency =
  QCheck.Test.make ~name:"broken = repaired + lost; stretch >= 1" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let before = Gen.connected_er ~rng 16 0.25 in
      let eng = Xheal_core.Xheal.create ~rng before in
      for _ = 1 to 4 do
        let ns = Graph.nodes (Xheal_core.Xheal.graph eng) in
        Xheal_core.Xheal.delete eng (List.nth ns (Random.State.int rng (List.length ns)))
      done;
      let r = Repair.measure ~before ~after:(Xheal_core.Xheal.graph eng) in
      r.Repair.broken_routes = r.Repair.repaired + r.Repair.lost
      && r.Repair.max_reroute_stretch >= 1.0
      && r.Repair.lost = 0 (* Xheal keeps everything connected *))

let suite =
  [
    ( "routing-tables",
      [
        Alcotest.test_case "path routes" `Quick test_tables_path;
        Alcotest.test_case "disconnected" `Quick test_tables_disconnected;
        Alcotest.test_case "deterministic ties" `Quick test_tables_deterministic_ties;
        Alcotest.test_case "table audit on grid" `Quick test_tables_check;
        QCheck_alcotest.to_alcotest prop_routes_are_shortest;
      ] );
    ( "congestion",
      [
        Alcotest.test_case "path load profile" `Quick test_congestion_path;
        Alcotest.test_case "star vs clique" `Quick test_congestion_star_vs_clique;
        Alcotest.test_case "cycle ties go to the least edge" `Quick test_congestion_cycle_tie;
      ] );
    ( "route-repair",
      [
        Alcotest.test_case "star hub repair" `Quick test_repair_counts;
        Alcotest.test_case "lost routes" `Quick test_repair_lost_routes;
        QCheck_alcotest.to_alcotest prop_repair_consistency;
      ] );
  ]
