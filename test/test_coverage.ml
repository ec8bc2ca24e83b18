(* Targeted tests for corners the broader suites reach only indirectly. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Traversal = Xheal_graph.Traversal
module Cuts = Xheal_graph.Cuts
module Xheal = Xheal_core.Xheal
module Cloud = Xheal_core.Cloud
module Driver = Xheal_adversary.Driver
module Strategy = Xheal_adversary.Strategy
module Event = Xheal_adversary.Event
module Election = Xheal_distributed.Election
module Netsim = Xheal_distributed.Netsim
module Randwalk = Xheal_linalg.Randwalk

let rng () = Random.State.make [| 103 |]

(* Batch deletion that takes out a secondary-cloud bridge together with
   primary-cloud members in one timestep. *)
let test_batch_kills_bridge_and_members () =
  let g = Graph.create () in
  List.iter (fun l -> ignore (Graph.add_edge g 0 l)) [ 1; 2; 3; 4 ];
  List.iter (fun l -> ignore (Graph.add_edge g 10 l)) [ 11; 12; 13; 14 ];
  ignore (Graph.add_edge g 20 0);
  ignore (Graph.add_edge g 20 10);
  ignore (Graph.add_edge g 4 11);
  let eng = Xheal.create ~rng:(rng ()) g in
  Xheal.delete eng 0;
  Xheal.delete eng 10;
  Xheal.delete eng 20;
  (* A secondary now exists; batch-kill one bridge plus two plain members. *)
  let sec =
    List.find (fun c -> Cloud.kind c = Cloud.Secondary) (Xheal.clouds eng)
  in
  let bridge = List.hd (Cloud.members sec) in
  let others =
    List.filter (fun u -> u <> bridge) (Graph.nodes (Xheal.graph eng))
  in
  let victims = bridge :: List.filteri (fun i _ -> i < 2) others in
  Xheal.delete_many eng victims;
  (match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "invariant: %s" e);
  Alcotest.(check bool) "still connected" true (Traversal.is_connected (Xheal.graph eng))

(* sweep_best_cut: witness matches the reported value. *)
let test_sweep_best_cut_witness () =
  let g = Gen.path 8 in
  let set, h = Cuts.sweep_best_cut g ~scores:float_of_int in
  Alcotest.(check (float 1e-9)) "optimal on a path" 0.25 h;
  let cut = Cuts.cut_size g set in
  let side = min (List.length set) (Graph.num_nodes g - List.length set) in
  Alcotest.(check (float 1e-9)) "witness consistent" h
    (float_of_int cut /. float_of_int side);
  (* Equal scores fall back to id order, whatever the slot layout: a
     path built from its high end still sweeps up from id 0. *)
  let from_top = Graph.of_edges (List.init 7 (fun i -> (7 - i, 6 - i))) in
  let tied, _ = Cuts.sweep_best_cut from_top ~scores:(fun _ -> 0.0) in
  Alcotest.(check (list int)) "ties break by id" [ 0; 1; 2; 3 ] tied;
  let empty_set, inf_h = Cuts.sweep_best_cut (Gen.empty 1) ~scores:float_of_int in
  Alcotest.(check bool) "degenerate graph" true (empty_set = [] && inf_h = infinity)

let test_driver_live_nodes () =
  let d = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng:(rng ()) (Gen.cycle 6) in
  Driver.apply d (Event.Insert { node = 42; neighbors = [ 0 ] });
  Driver.apply d (Event.Delete 1);
  let live = Driver.live_nodes d in
  Alcotest.(check bool) "deleted node absent" false (List.mem 1 live);
  Alcotest.(check bool) "inserted node present" true (List.mem 42 live);
  Alcotest.(check int) "count" 6 (List.length live)

let test_election_duplicate_participants () =
  let stats, leader = Election.run ~rng:(rng ()) [ 5; 3; 5; 3; 7 ] in
  (match leader with
  | Some l -> Alcotest.(check bool) "valid leader" true (List.mem l [ 3; 5; 7 ])
  | None -> Alcotest.fail "leader expected");
  Alcotest.(check bool) "rounds small" true (stats.Netsim.rounds <= 5)

let test_randwalk_isolated_node () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  (* Node 9 has rank 2. *)
  let x = Xheal_linalg.Vec.basis 3 2 in
  let y = Randwalk.step_distribution g x in
  (* An isolated node keeps all its mass. *)
  Alcotest.(check (float 1e-12)) "mass stays" 1.0 y.(2)

let test_healer_simple_insert_then_delete_roundtrip () =
  let inst =
    Xheal_baselines.Baselines.line_heal.Xheal_core.Healer.make ~rng:(rng ()) (Gen.cycle 5)
  in
  inst.Xheal_core.Healer.insert ~node:50 ~neighbors:[ 0; 2 ];
  inst.Xheal_core.Healer.delete 50;
  let t = inst.Xheal_core.Healer.totals () in
  Alcotest.(check int) "one insertion" 1 t.Xheal_core.Cost.insertions;
  Alcotest.(check int) "one deletion" 1 t.Xheal_core.Cost.deletions;
  Alcotest.(check bool) "graph intact" true
    (Traversal.is_connected (inst.Xheal_core.Healer.graph ()))

(* delete_many on a graph that is already disconnected must not raise and
   must keep each surviving component internally repaired. *)
let test_batch_on_disconnected_components () =
  let g = Gen.star 6 in
  Graph.union_into ~dst:g (Gen.relabel ~offset:10 (Gen.star 6));
  let eng = Xheal.create ~rng:(rng ()) g in
  Xheal.delete_many eng [ 0; 10 ];
  (match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "invariant: %s" e);
  (* Two components in, two components out — each healed internally. *)
  Alcotest.(check int) "component count preserved" 2
    (Traversal.num_components (Xheal.graph eng))

(* The bottleneck adversary interacts correctly with the healer loop. *)
let test_bottleneck_full_run () =
  let r = rng () in
  let d = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng:r (Gen.random_h_graph ~rng:r 32 2) in
  ignore (Driver.run d (Strategy.bottleneck_delete ~rng:r ()) ~steps:12);
  Alcotest.(check bool) "survives the spectral adversary" true
    (Traversal.is_connected (Driver.graph d));
  match (Driver.healer d).Xheal_core.Healer.check () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let suite =
  [
    ( "coverage",
      [
        Alcotest.test_case "batch kills bridge + members" `Quick test_batch_kills_bridge_and_members;
        Alcotest.test_case "sweep_best_cut witness" `Quick test_sweep_best_cut_witness;
        Alcotest.test_case "driver live_nodes" `Quick test_driver_live_nodes;
        Alcotest.test_case "election with duplicates" `Quick test_election_duplicate_participants;
        Alcotest.test_case "randwalk isolated node" `Quick test_randwalk_isolated_node;
        Alcotest.test_case "healer insert/delete roundtrip" `Quick
          test_healer_simple_insert_then_delete_roundtrip;
        Alcotest.test_case "batch on disconnected graph" `Quick test_batch_on_disconnected_components;
        Alcotest.test_case "bottleneck adversary full run" `Quick test_bottleneck_full_run;
      ] );
  ]
