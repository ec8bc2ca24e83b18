module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Traversal = Xheal_graph.Traversal
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Cloud = Xheal_core.Cloud

let rng () = Random.State.make [| 71 |]

let assert_ok eng =
  match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "invariant: %s" e

(* ---------- delete_many ---------- *)

let test_batch_trivia () =
  let eng = Xheal.create ~rng:(rng ()) (Gen.cycle 6) in
  Xheal.delete_many eng [];
  Xheal.delete_many eng [ 99; 98 ] (* unknown ids ignored *);
  assert_ok eng;
  Alcotest.(check int) "nothing removed" 6 (Graph.num_nodes (Xheal.graph eng))

let test_batch_singleton_delegates () =
  let eng = Xheal.create ~rng:(rng ()) (Gen.star 8) in
  Xheal.delete_many eng [ 0; 0 ] (* duplicate collapses to single deletion *);
  assert_ok eng;
  Alcotest.(check bool) "healed like a single delete" true
    (Traversal.is_connected (Xheal.graph eng));
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "single-delete case tag" true (r.Cost.case = Cost.Case1)
  | None -> Alcotest.fail "report expected"

let test_batch_star_core () =
  (* Delete the hub and three leaves at once. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.star 12) in
  Xheal.delete_many eng [ 0; 1; 2; 3 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check int) "survivors" 8 (Graph.num_nodes (Xheal.graph eng));
  let t = Xheal.totals eng in
  Alcotest.(check int) "counts four deletions" 4 t.Cost.deletions;
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "batch tag" true (r.Cost.case = Cost.Batch 4)
  | None -> Alcotest.fail "report expected"

let test_batch_disjoint_regions () =
  (* Two far-apart holes in a cycle: two regions, each repaired, the
     whole ring still connected. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.cycle 20) in
  Xheal.delete_many eng [ 0; 10 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check int) "two repair clouds" 2 (Xheal.num_clouds eng)

let test_batch_adjacent_victims_one_region () =
  (* A contiguous run of victims on a cycle is one damage region: the
     survivors around the hole are joined by one repair. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.cycle 12) in
  Xheal.delete_many eng [ 0; 1; 2; 3 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check int) "survivors" 8 (Graph.num_nodes (Xheal.graph eng))

let test_batch_inside_clouds () =
  (* Build a cloud via a hub deletion, then batch-delete several cloud
     members together with black-edge nodes. *)
  let g = Gen.star 16 in
  ignore (Graph.add_edge g 1 100);
  ignore (Graph.add_edge g 2 101);
  let eng = Xheal.create ~rng:(rng ()) g in
  Xheal.delete eng 0;
  Xheal.delete_many eng [ 1; 2; 3 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check bool) "pendants reconnected" true
    (Graph.degree (Xheal.graph eng) 100 >= 1 && Graph.degree (Xheal.graph eng) 101 >= 1)

let test_batch_bills_leader_handoff () =
  (* The hub's deletion builds one primary cloud over the leaves; a
     batch that kills its leader and one more member splices the cloud
     once and bills the handoff once, as a single deletion would. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.star 16) in
  Xheal.delete eng 0;
  let c =
    match Xheal.clouds eng with [ c ] -> c | _ -> Alcotest.fail "one primary cloud expected"
  in
  let leader = Option.get (Cloud.leader c) in
  let other = List.find (fun u -> u <> leader) (Cloud.members c) in
  Xheal.delete_many eng [ leader; other ];
  assert_ok eng;
  let r = Option.get (Xheal.last_report eng) in
  let count label = List.length (List.filter (fun p -> p.Cost.label = label) r.Cost.phases) in
  Alcotest.(check int) "one splice" 1 (count "fix-cloud");
  Alcotest.(check int) "one handoff" 1 (count "leader-handoff")

let test_batch_whole_graph_but_two () =
  let eng = Xheal.create ~rng:(rng ()) (Gen.complete 8) in
  Xheal.delete_many eng [ 0; 1; 2; 3; 4; 5 ];
  assert_ok eng;
  Alcotest.(check int) "two left" 2 (Graph.num_nodes (Xheal.graph eng));
  Alcotest.(check bool) "still connected" true (Traversal.is_connected (Xheal.graph eng))

(* Three random batches of [batch] victims on a seeded 26-node ER graph;
   true when every batch keeps the engine invariants and connectivity. *)
let batches_sound (seed, batch) =
  let r = Random.State.make [| seed |] in
  let eng = Xheal.create ~rng:r (Gen.connected_er ~rng:r 26 0.18) in
  let ok = ref true in
  for _ = 1 to 3 do
    if !ok then begin
      let nodes = Graph.nodes (Xheal.graph eng) in
      if List.length nodes > batch + 4 then begin
        let victims =
          List.filteri (fun i _ -> i < batch) (Gen.shuffle_list ~rng:r nodes)
        in
        Xheal.delete_many eng victims;
        ok :=
          Xheal.check eng = Ok ()
          && Traversal.is_connected (Xheal.graph eng)
      end
    end
  done;
  !ok

let prop_batch_sound =
  QCheck.Test.make ~name:"random batches keep invariants + connectivity" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 2 6))
    batches_sound

(* The property's inputs that once isolated a node: a victim that is a
   singleton primary's only member and a secondary's bridge, with a
   degree-1 neighbour. Its region must be stitched to the primary that
   re-anchors the secondary, as Case 2.2 does for a single deletion. *)
let test_batch_anchor_regions () =
  List.iter
    (fun (seed, batch) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, batch %d stays connected" seed batch)
        true (batches_sound (seed, batch)))
    [ (1470, 4); (3293, 3); (3805, 4); (4314, 4); (4770, 5) ]

(* A bridge victim's other primary, still linked by the secondary the
   victim bridged in, gets no second bridge, as in a single Case-2.2
   deletion. Deleting hubs 10 and 11 leaves primaries P = {3;4;5;6}
   and Q = {1;2;3;6}; deleting 6 links them by a secondary F whose
   bridges are 3 for P and 1 for Q. The batch then deletes 3, so F is
   re-anchored by a free member of P, and 21 in a region of its own. *)
let test_batch_keeps_linked_primary () =
  let g =
    Graph.of_edges
      [ (10, 3); (10, 4); (10, 5); (10, 6); (11, 1); (11, 2); (11, 3); (11, 6); (4, 20); (20, 21); (21, 22) ]
  in
  let eng = Xheal.create ~rng:(rng ()) g in
  List.iter (Xheal.delete eng) [ 10; 11; 6 ];
  let f = List.find (fun c -> Cloud.kind c = Cloud.Secondary) (Xheal.clouds eng) in
  let q = Option.get (Xheal.find_cloud eng 1) in
  Alcotest.(check (list int)) "Q" [ 1; 2; 3 ] (Cloud.members q);
  Alcotest.(check (list int)) "F's bridges" [ 1; 3 ] (Cloud.members f);
  Xheal.delete_many eng [ 3; 21 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  List.iter
    (fun c ->
      if Cloud.kind c = Cloud.Secondary && Cloud.id c <> Cloud.id f then
        List.iter
          (fun u ->
            if Cloud.mem q u then Alcotest.failf "Q's member %d bridges secondary %d" u (Cloud.id c))
          (Cloud.members c))
    (Xheal.clouds eng)

let prop_batch_degree_bound =
  QCheck.Test.make ~name:"batches respect the degree bound vs pre-attack graph" ~count:25
    QCheck.(int_range 0 2000)
    (fun seed ->
      let r = Random.State.make [| seed |] in
      let initial = Gen.connected_er ~rng:r 24 0.2 in
      let eng = Xheal.create ~rng:r initial in
      let nodes = Graph.nodes (Xheal.graph eng) in
      let victims = List.filteri (fun i _ -> i < 5) nodes in
      Xheal.delete_many eng victims;
      (* No insertions: G' is the initial graph. *)
      let rep =
        Xheal_metrics.Degree.report ~kappa:(Xheal.kappa eng) ~healed:(Xheal.graph eng)
          ~reference:initial
      in
      rep.Xheal_metrics.Degree.bound_ok)

let suite =
  [
    ( "batch-deletion",
      [
        Alcotest.test_case "empty/unknown batches" `Quick test_batch_trivia;
        Alcotest.test_case "singleton delegates to delete" `Quick test_batch_singleton_delegates;
        Alcotest.test_case "hub + leaves at once" `Quick test_batch_star_core;
        Alcotest.test_case "disjoint regions" `Quick test_batch_disjoint_regions;
        Alcotest.test_case "adjacent victims merge regions" `Quick test_batch_adjacent_victims_one_region;
        Alcotest.test_case "victims inside clouds" `Quick test_batch_inside_clouds;
        Alcotest.test_case "batch down to two nodes" `Quick test_batch_whole_graph_but_two;
        Alcotest.test_case "a batch that kills a leader bills the handoff" `Quick
          test_batch_bills_leader_handoff;
        Alcotest.test_case "bridge victims join their anchor's region" `Quick
          test_batch_anchor_regions;
        Alcotest.test_case "a batch leaves a still-linked primary alone" `Quick
          test_batch_keeps_linked_primary;
        QCheck_alcotest.to_alcotest prop_batch_sound;
        QCheck_alcotest.to_alcotest prop_batch_degree_bound;
      ] );
  ]
