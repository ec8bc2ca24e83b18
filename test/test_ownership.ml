(* Edge ownership as the engine derives it: an edge is black when the
   black subgraph holds it, owned by a cloud when that cloud's
   [Cloud.current] holds it, and present exactly when one of the two
   does. The unit cases drive small hand-built networks through the
   engine's API; the property replays seeded mixed attacks against a
   test-side black model. *)

module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Gen = Xheal_graph.Generators
module Xheal = Xheal_core.Xheal
module Cloud = Xheal_core.Cloud
module Config = Xheal_core.Config
module Cost = Xheal_core.Cost

let engine ?cfg g = Xheal.create ?cfg ~rng:(Random.State.make [| 41 |]) g

let check_own eng =
  match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "ownership broken: %s" e

let has eng u v = Graph.has_edge (Xheal.graph eng) u v

(* The id of the one cloud [u] belongs to. *)
let cloud_of eng u =
  match Xheal.clouds_of_node eng u with
  | [ c ] -> Cloud.id c
  | cs -> Alcotest.failf "node %d is in %d clouds, expected one" u (List.length cs)

(* Hubs 0, 10 and 20 with the given leaves, plus [extra] black edges.
   Deleting the three hubs builds three Case-1 clique clouds: P1 over
   1, 2, 3, 5, P2 over 1, 2, 4 and P3 over 5, 6, 7, 8. Edge 1-2 then
   has two cloud owners, and node 5 sits in P1 and P3 only. *)
let three_hubs ?(extra = []) () =
  let spokes hub = List.map (fun u -> (hub, u)) in
  Support.of_edges
    (spokes 0 [ 1; 2; 3; 5 ] @ spokes 10 [ 1; 2; 4 ] @ spokes 20 [ 5; 6; 7; 8 ] @ extra)

(* The always-combine engine over [three_hubs], hubs deleted. *)
let hub_clouds ?extra () =
  let cfg = { Config.default with Config.secondary_clouds = false } in
  let eng = engine ~cfg (three_hubs ?extra ()) in
  List.iter (Xheal.delete eng) [ 0; 10; 20 ];
  eng

(* Deleting node 5 combines P1 and P3 into one six-member H-graph cloud
   D and dissolves both; P2 is untouched. Returns the edges P1 and P3
   held before (minus 5's) and D. *)
let combine_p1_p3 eng =
  let released =
    Edge.Set.filter
      (fun e -> not (Edge.mem e 5))
      (Edge.Set.union
         (Cloud.current (Option.get (Xheal.find_cloud eng (cloud_of eng 3))))
         (Cloud.current (Option.get (Xheal.find_cloud eng (cloud_of eng 6)))))
  in
  Xheal.delete eng 5;
  (match Xheal.last_report eng with
  | Some r when r.Cost.combined -> ()
  | _ -> Alcotest.fail "deleting 5 should combine P1 and P3");
  (released, Option.get (Xheal.find_cloud eng (cloud_of eng 6)))

let test_black_edges () =
  let eng = engine (Support.of_edges [ (1, 2); (2, 3) ]) in
  Alcotest.(check bool) "seed edge is black" true (Xheal.is_black_edge eng 1 2);
  Alcotest.(check bool) "either orientation" true (Xheal.is_black_edge eng 2 1);
  Alcotest.(check (list int)) "no cloud owner" [] (Xheal.edge_cloud_owners eng 1 2);
  Xheal.insert eng ~node:4 ~neighbors:[ 1; 99 ];
  Alcotest.(check bool) "inserted edge is black" true (Xheal.is_black_edge eng 4 1);
  Alcotest.(check bool) "unknown neighbour ignored" false (Xheal.is_black_edge eng 4 99);
  Alcotest.(check int) "black degree" 2 (Support.black_degree eng 1);
  (* 4 has one black neighbour, so its deletion builds nothing. *)
  Xheal.delete eng 4;
  Alcotest.(check bool) "edge gone with its endpoint" false (has eng 1 4);
  Alcotest.(check bool) "no longer black" false (Xheal.is_black_edge eng 1 4);
  Alcotest.(check int) "black degree after" 1 (Support.black_degree eng 1);
  check_own eng

let test_cloud_edges () =
  let eng = hub_clouds () in
  let p1 = cloud_of eng 3 and p2 = cloud_of eng 4 in
  Alcotest.(check bool) "cloud edge is not black" false (Xheal.is_black_edge eng 1 3);
  Alcotest.(check (list int)) "owners" [ p1 ] (Xheal.edge_cloud_owners eng 1 3);
  Alcotest.(check (list int)) "two owners, ascending" [ p1; p2 ] (Xheal.edge_cloud_owners eng 2 1);
  check_own eng;
  let released, d = combine_p1_p3 eng in
  Alcotest.(check bool) "P2 keeps 1-2 alive" true (has eng 1 2);
  Alcotest.(check bool) "P2 still owns 1-2" true (List.mem p2 (Xheal.edge_cloud_owners eng 1 2));
  let dropped = Edge.Set.diff released (Edge.Set.add (Edge.make 1 2) (Cloud.current d)) in
  Alcotest.(check bool) "the combined sample drops some edge" false (Edge.Set.is_empty dropped);
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if has eng u v then Alcotest.failf "edge %d-%d outlived its last owner" u v)
    dropped;
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if not (List.mem (Cloud.id d) (Xheal.edge_cloud_owners eng u v)) then
        Alcotest.failf "combined cloud does not own its edge %d-%d" u v)
    (Cloud.current d);
  check_own eng

let test_black_plus_cloud () =
  let blacks = [ (1, 3); (2, 3); (6, 7); (6, 8); (7, 8) ] in
  let eng = hub_clouds ~extra:blacks () in
  let p1 = cloud_of eng 3 in
  Alcotest.(check bool) "black" true (Xheal.is_black_edge eng 1 3);
  Alcotest.(check (list int)) "and cloud-owned" [ p1 ] (Xheal.edge_cloud_owners eng 1 3);
  let _, d = combine_p1_p3 eng in
  let black_only =
    List.filter (fun (u, v) -> not (Edge.Set.mem (Edge.make u v) (Cloud.current d))) blacks
  in
  Alcotest.(check bool) "the combined sample leaves a black edge out" true (black_only <> []);
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "black keeps it alive" true
        (has eng u v && Xheal.is_black_edge eng u v);
      Alcotest.(check (list int)) "no cloud owner left" [] (Xheal.edge_cloud_owners eng u v))
    black_only;
  check_own eng

let test_black_neighbors () =
  (* Node 1: black edges to 8 and 9, cloud edges to 2 and 3. *)
  let eng = engine (Support.of_edges [ (0, 1); (0, 2); (0, 3); (1, 8); (1, 9) ]) in
  Xheal.delete eng 0;
  Alcotest.(check int) "black degree" 2 (Support.black_degree eng 1);
  Alcotest.(check int) "graph degree includes cloud" 4 (Graph.degree (Xheal.graph eng) 1);
  Alcotest.(check (list bool)) "black only" [ false; false; true; true ]
    (List.map (Xheal.is_black_edge eng 1) [ 2; 3; 8; 9 ]);
  (* Deleting 1 stitches its black neighbours in as singleton clouds. *)
  Xheal.delete eng 1;
  let singleton u =
    List.exists (fun c -> Cloud.members c = [ u ]) (Xheal.clouds_of_node eng u)
  in
  Alcotest.(check (list bool)) "black neighbours stitched" [ false; false; true; true ]
    (List.map singleton [ 2; 3; 8; 9 ]);
  check_own eng

let test_remove_node () =
  let eng = engine (Support.of_edges [ (5, 0); (5, 1); (5, 2); (0, 1); (1, 2) ]) in
  Xheal.delete eng 5;
  let p = cloud_of eng 0 in
  Alcotest.(check (list int)) "0-2 cloud-only" [ p ] (Xheal.edge_cloud_owners eng 0 2);
  Xheal.delete eng 0;
  Alcotest.(check bool) "node gone" false (Graph.has_node (Xheal.graph eng) 0);
  Alcotest.(check int) "only 1-2 left" 1 (Graph.num_edges (Xheal.graph eng));
  Alcotest.(check bool) "surviving edge black" true (Xheal.is_black_edge eng 1 2);
  Alcotest.(check (list int)) "and still its cloud's" [ p ] (Xheal.edge_cloud_owners eng 1 2);
  Alcotest.(check bool) "black edge gone" false (Xheal.is_black_edge eng 0 1);
  Alcotest.(check (list int)) "cloud edge gone" [] (Xheal.edge_cloud_owners eng 0 2);
  check_own eng

let test_of_black_graph () =
  let g = Gen.cycle 5 in
  let eng = engine g in
  Alcotest.(check bool) "copied" true (Support.graph_equal g (Xheal.graph eng));
  List.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      Alcotest.(check bool) "all black" true (Xheal.is_black_edge eng u v);
      Alcotest.(check (list int)) "no cloud owner" [] (Xheal.edge_cloud_owners eng u v))
    (Graph.edges g);
  (* Independent of the seed graph, both ways. *)
  Graph.remove_node g 0;
  Alcotest.(check bool) "independent" true (Graph.has_node (Xheal.graph eng) 0);
  Alcotest.(check bool) "still black" true (Xheal.is_black_edge eng 0 1);
  Xheal.delete eng 2;
  Alcotest.(check bool) "seed untouched" true (Graph.has_edge g 2 3);
  check_own eng

let test_idempotent_removals () =
  let g = Support.of_edges [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2) ] in
  let a = engine (Graph.copy g) and b = engine (Graph.copy g) in
  Xheal.delete_many a [ 0; 99; 0 ];
  Xheal.delete b 0;
  Alcotest.(check bool) "duplicates and unknown ids ignored" true
    (Support.graph_equal (Xheal.graph a) (Xheal.graph b));
  Xheal.delete_many a [ 0; 99 ];
  Alcotest.(check bool) "removing the absent is a no-op" true
    (Support.graph_equal (Xheal.graph a) (Xheal.graph b));
  Alcotest.(check int) "one deletion counted" 1 (Xheal.totals a).Cost.deletions;
  Alcotest.(check bool) "black untouched" true (Xheal.is_black_edge a 1 2);
  Alcotest.(check (list int)) "same owners" (Xheal.edge_cloud_owners b 1 2)
    (Xheal.edge_cloud_owners a 1 2);
  check_own a

(* Seeded property over mixed attacks (single deletions, [delete_many]
   batches, insertions) on the seeds of xheal-engine's "combine prunes
   every redundant secondary", where combines occur. After every step
   (a) the network is the test's black model (seed plus inserted edges,
   minus deleted nodes) united with every cloud's [current], (b)
   [is_black_edge] agrees with the model on every live edge and (c)
   [edge_cloud_owners] equals a scan over all clouds. *)
let verify ~seed ~step eng model =
  let net = Xheal.graph eng and clouds = Xheal.clouds eng in
  let expected = Graph.copy model in
  List.iter
    (fun c ->
      Edge.Set.iter
        (fun e -> ignore (Graph.add_edge expected (Edge.src e) (Edge.dst e)))
        (Cloud.current c))
    clouds;
  if not (Support.graph_equal expected net) then
    Alcotest.failf "seed %d step %d: network is not black plus cloud edges (%d vs %d edges)" seed
      step (Graph.num_edges net) (Graph.num_edges expected);
  List.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if Xheal.is_black_edge eng v u <> Graph.has_edge model u v then
        Alcotest.failf "seed %d step %d: edge %d-%d black flag disagrees" seed step u v;
      let owners =
        List.filter_map
          (fun c -> if Edge.Set.mem e (Cloud.current c) then Some (Cloud.id c) else None)
          clouds
      in
      if Xheal.edge_cloud_owners eng v u <> owners then
        Alcotest.failf "seed %d step %d: edge %d-%d owners disagree" seed step u v)
    (Graph.edges net)

let test_derived_ownership () =
  let combined = ref 0 and batches = ref 0 in
  for seed = 0 to 199 do
    let g = Gen.random_regular ~rng:(Random.State.make [| seed |]) 24 4 in
    let eng = Xheal.create ~rng:(Random.State.make [| seed + 1 |]) g in
    let atk = Random.State.make [| seed + 2 |] in
    let model = Graph.copy g in
    for step = 1 to 24 do
      let live = Graph.nodes (Xheal.graph eng) in
      let pick () = List.nth live (Random.State.int atk (List.length live)) in
      let roll = Random.State.int atk 4 in
      if roll = 0 || List.length live < 8 then begin
        let node = 100 + step in
        let neighbors = List.sort_uniq Int.compare (List.init 3 (fun _ -> pick ())) in
        Xheal.insert eng ~node ~neighbors;
        Graph.add_node model node;
        List.iter (fun u -> ignore (Graph.add_edge model node u)) neighbors
      end
      else begin
        let victims = if roll = 1 then List.init 3 (fun _ -> pick ()) else [ pick () ] in
        if roll = 1 then Xheal.delete_many eng victims else Xheal.delete eng (List.hd victims);
        List.iter (Graph.remove_node model) victims;
        match Xheal.last_report eng with
        | Some r when r.Cost.combined ->
          incr combined;
          if roll = 1 then incr batches
        | _ -> ()
      end;
      verify ~seed ~step eng model
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d combining repairs, %d of them batches" !combined !batches)
    true
    (!combined > 0 && !batches > 0)

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
        Alcotest.test_case "derived ownership matches black plus cloud edges" `Quick
          test_derived_ownership;
      ] );
  ]
