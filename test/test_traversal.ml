module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal
module Gen = Xheal_graph.Generators

let test_bfs_distances () =
  let g = Gen.path 5 in
  let d = Traversal.bfs_distances g 0 in
  Alcotest.(check (option int)) "distance to end" (Some 4) (Hashtbl.find_opt d 4);
  Alcotest.(check (option int)) "distance to self" (Some 0) (Hashtbl.find_opt d 0);
  Alcotest.(check int) "all reached" 5 (Hashtbl.length d)

let test_distance () =
  let g = Gen.cycle 8 in
  Alcotest.(check (option int)) "around the cycle" (Some 3) (Support.distance g 0 5);
  Alcotest.(check (option int)) "adjacent" (Some 1) (Support.distance g 7 0);
  let g2 = Support.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  Alcotest.(check (option int)) "disconnected" None (Support.distance g2 0 9);
  Alcotest.(check (option int)) "missing node" None (Support.distance g2 0 42)

let test_components () =
  let g = Support.of_edges ~nodes:[ 7 ] [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check int) "three components" 3 (Traversal.num_components g);
  Alcotest.(check (list (list int)))
    "component contents"
    [ [ 0; 1; 2 ]; [ 4; 5 ]; [ 7 ] ]
    (Traversal.components g);
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g);
  Alcotest.(check bool) "empty graph connected" true (Traversal.is_connected (Graph.create ()));
  Alcotest.(check bool) "cycle connected" true (Traversal.is_connected (Gen.cycle 5))

let test_diameter_eccentricity () =
  Alcotest.(check (option int)) "path diameter" (Some 6) (Traversal.diameter (Gen.path 7));
  Alcotest.(check (option int)) "cycle diameter" (Some 3) (Traversal.diameter (Gen.cycle 7));
  Alcotest.(check (option int)) "clique diameter" (Some 1) (Traversal.diameter (Gen.complete 5));
  Alcotest.(check (option int)) "grid diameter" (Some 4) (Traversal.diameter (Gen.grid 3 3));
  let disc = Support.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  Alcotest.(check (option int)) "disconnected diameter" None (Traversal.diameter disc)

let test_articulation_points () =
  (* path: all interior nodes are cut vertices *)
  Alcotest.(check (list int)) "path" [ 1; 2; 3 ] (Traversal.articulation_points (Gen.path 5));
  Alcotest.(check (list int)) "cycle has none" [] (Traversal.articulation_points (Gen.cycle 6));
  Alcotest.(check (list int)) "star hub" [ 0 ] (Traversal.articulation_points (Gen.star 6));
  (* two triangles sharing node 2 *)
  let bowtie = Support.of_edges [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  Alcotest.(check (list int)) "bowtie center" [ 2 ] (Traversal.articulation_points bowtie);
  Alcotest.(check (list int)) "clique has none" [] (Traversal.articulation_points (Gen.complete 6))

let prop_components_partition =
  QCheck.Test.make ~name:"components partition the node set" ~count:50
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun pairs ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g u v)) pairs;
      let comps = Traversal.components g in
      let all = List.concat comps in
      List.sort_uniq Int.compare all = Graph.nodes g
      && List.length all = Graph.num_nodes g)

(* The traversals read the store's slots in place, so they must skip
   free slots and must not follow the slot order: ids added in
   descending order, then two nodes removed and not replaced, leave a
   layout unlike the id order with two holes in it. A scan of the slots
   meets the component of 9 first, then those of 7 and 5. *)
let test_free_slots () =
  let g = Graph.create () in
  List.iter (Graph.add_node g) [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ];
  List.iter
    (fun (u, v) -> ignore (Graph.add_edge g u v))
    [ (9, 4); (4, 8); (8, 6); (0, 7); (7, 1); (7, 3); (2, 5) ];
  Graph.remove_node g 6;
  Graph.remove_node g 3;
  Alcotest.(check (list (list int)))
    "components by smallest member"
    [ [ 0; 1; 7 ]; [ 2; 5 ]; [ 4; 8; 9 ] ]
    (Traversal.components g);
  Alcotest.(check int) "three components" 3 (Traversal.num_components g);
  Alcotest.(check (option int)) "distance 9 -> 8" (Some 2) (Support.distance g 9 8);
  Alcotest.(check (option int)) "distance to a removed node" None (Support.distance g 0 3);
  let d = Traversal.bfs_distances g 9 in
  Alcotest.(check (list (pair int int)))
    "distances from 9"
    [ (4, 1); (8, 2); (9, 0) ]
    (List.sort compare (Hashtbl.fold (fun u x acc -> (u, x) :: acc) d []));
  Alcotest.(check (option int)) "split diameter" None (Traversal.diameter g);
  ignore (Graph.add_edge g 8 1);
  ignore (Graph.add_edge g 7 2);
  Alcotest.(check bool) "joined" true (Traversal.is_connected g);
  Alcotest.(check (option int)) "path 9-4-8-1-7-2-5" (Some 6) (Traversal.diameter g)

let suite =
  [
    ( "traversal",
      [
        Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
        Alcotest.test_case "pairwise distance" `Quick test_distance;
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "diameter/eccentricity" `Quick test_diameter_eccentricity;
        Alcotest.test_case "articulation points" `Quick test_articulation_points;
        QCheck_alcotest.to_alcotest prop_components_partition;
      ] );
    ( "traversal-on-slots",
      [ Alcotest.test_case "free slots and a reversed layout" `Quick test_free_slots ] );
  ]
