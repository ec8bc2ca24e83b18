module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge

(* The same graph built in the opposite order: nodes and edges are
   added in reverse, so the slot layout — and with it every
   iter_*/fold_* order — differs while the graph stays equal. The
   engine determinism tests use it to show that no iteration order
   leaks into repair decisions. *)
let rebuilt_in_reverse g =
  let g' = Graph.create () in
  List.iter (Graph.add_node g') (List.rev (Graph.nodes g));
  List.iter
    (fun e -> ignore (Graph.add_edge g' (Edge.src e) (Edge.dst e)))
    (List.rev (Graph.edges g));
  g'

(* Node ids in slot order: differs between two builds iff their layouts
   visit nodes differently. *)
let slot_order g = List.rev (Graph.fold_nodes (fun u acc -> u :: acc) g [])

let check_inv g name =
  match Graph.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariant broken: %s" name e

let test_empty () =
  let g = Graph.create () in
  Alcotest.(check int) "no nodes" 0 (Graph.num_nodes g);
  Alcotest.(check int) "no edges" 0 (Graph.num_edges g);
  Alcotest.(check bool) "min degree" true (Graph.min_degree g = 0);
  check_inv g "empty"

let test_add_remove_nodes () =
  let g = Graph.create () in
  Graph.add_node g 5;
  Graph.add_node g 5;
  Graph.add_node g 2;
  Alcotest.(check int) "idempotent add" 2 (Graph.num_nodes g);
  Alcotest.(check (list int)) "sorted nodes" [ 2; 5 ] (Graph.nodes g);
  Graph.remove_node g 5;
  Alcotest.(check int) "after removal" 1 (Graph.num_nodes g);
  Graph.remove_node g 99 (* absent: no-op *);
  check_inv g "nodes"

let test_add_remove_edges () =
  let g = Graph.create () in
  Alcotest.(check bool) "new edge" true (Graph.add_edge g 1 2);
  Alcotest.(check bool) "duplicate edge" false (Graph.add_edge g 2 1);
  Alcotest.(check int) "edge count" 1 (Graph.num_edges g);
  Alcotest.(check bool) "has_edge symmetric" true (Graph.has_edge g 2 1);
  Alcotest.(check bool) "remove" true (Graph.remove_edge g 1 2);
  Alcotest.(check bool) "remove again" false (Graph.remove_edge g 1 2);
  Alcotest.(check int) "nodes persist" 2 (Graph.num_nodes g);
  check_inv g "edges"

let test_self_loop_rejected () =
  let g = Graph.create () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      ignore (Graph.add_edge g 3 3))

(* [min_int] is the store's free-slot tombstone, so a negative id must
   be refused before it reaches a slot: a rejected add leaves the graph
   exactly as it was, and the packed view still covers every node. *)
let test_negative_ids_rejected () =
  let g = Graph.of_edges [ (1, 2) ] in
  let rejects label f =
    Alcotest.(check bool) label true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "add_node min_int" (fun () -> Graph.add_node g min_int);
  rejects "add_node -1" (fun () -> Graph.add_node g (-1));
  rejects "add_edge min_int 3" (fun () -> ignore (Graph.add_edge g min_int 3));
  rejects "add_edge 3 -1" (fun () -> ignore (Graph.add_edge g 3 (-1)));
  rejects "of_edges" (fun () -> ignore (Graph.of_edges [ (0, 1); (-2, 1) ]));
  rejects "of_edges ~nodes" (fun () -> ignore (Graph.of_edges ~nodes:[ -5 ] []));
  Alcotest.(check (list int)) "nodes unchanged" [ 1; 2 ] (Graph.nodes g);
  Alcotest.(check int) "edges unchanged" 1 (Graph.num_edges g);
  Alcotest.(check bool) "absent" false (Graph.has_node g min_int);
  check_inv g "after rejections";
  let order = Array.make 2 0 in
  Graph.slots_by_id g ~order ~tmp:(Array.make 2 0) ~counts:(Array.make 256 0);
  Alcotest.(check (array int))
    "ids by rank" [| 1; 2 |]
    (Array.map (fun s -> (Graph.view g).Graph.v_ids.(s)) order)

let test_remove_node_drops_edges () =
  let g = Graph.of_edges [ (0, 1); (0, 2); (1, 2); (2, 3) ] in
  Graph.remove_node g 2;
  Alcotest.(check int) "edges left" 1 (Graph.num_edges g);
  Alcotest.(check (list int)) "isolated 3" [] (Graph.neighbors g 3);
  check_inv g "remove node"

let test_neighbors_degree () =
  let g = Graph.of_edges [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (list int)) "neighbors sorted" [ 1; 2; 3 ] (Graph.neighbors g 0);
  Alcotest.(check int) "degree hub" 3 (Graph.degree g 0);
  Alcotest.(check int) "degree leaf" 1 (Graph.degree g 1);
  Alcotest.(check int) "degree missing" 0 (Graph.degree g 9);
  (* The slot view's runs carry the same degrees; their total is the
     volume 2m. *)
  let v = Graph.view g in
  Alcotest.(check int) "hub run" 3 v.Graph.v_deg.(Graph.slot_of g 0);
  Alcotest.(check int) "volume" 6
    (Array.fold_left ( + ) 0 (Array.sub v.Graph.v_deg 0 v.Graph.v_used));
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g);
  Alcotest.(check int) "min degree" 1 (Graph.min_degree g)

let test_edges_listing () =
  let g = Graph.of_edges [ (2, 1); (0, 3); (1, 0) ] in
  Alcotest.(check (list (pair int int)))
    "sorted canonical edges"
    [ (0, 1); (0, 3); (1, 2) ]
    (List.map Edge.endpoints (Graph.edges g))

let test_copy_independent () =
  let g = Graph.of_edges [ (0, 1); (1, 2) ] in
  let g' = Graph.copy g in
  ignore (Graph.add_edge g' 0 2);
  Graph.remove_node g' 1;
  Alcotest.(check int) "original nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "original edges" 2 (Graph.num_edges g);
  Alcotest.(check bool) "copies equal initially" true (Graph.equal g (Graph.copy g));
  Alcotest.(check bool) "diverged" false (Graph.equal g g')

let test_sub () =
  let g = Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let s = Graph.sub g [ 0; 1; 2 ] in
  Alcotest.(check int) "induced nodes" 3 (Graph.num_nodes s);
  Alcotest.(check int) "induced edges" 2 (Graph.num_edges s);
  Alcotest.(check bool) "edge inside" true (Graph.has_edge s 0 1);
  Alcotest.(check bool) "edge to outside dropped" false (Graph.has_edge s 3 0);
  check_inv s "sub"

let test_union_into () =
  let a = Graph.of_edges [ (0, 1) ] in
  let b = Graph.of_edges [ (1, 2); (0, 1) ] in
  Graph.union_into ~dst:a b;
  Alcotest.(check int) "union nodes" 3 (Graph.num_nodes a);
  Alcotest.(check int) "union edges (dedup)" 2 (Graph.num_edges a);
  check_inv a "union"

let test_of_edges_with_isolated () =
  let g = Graph.of_edges ~nodes:[ 9; 10 ] [ (0, 1) ] in
  Alcotest.(check (list int)) "isolated present" [ 0; 1; 9; 10 ] (Graph.nodes g)

(* Micro-regressions for the internal edge counter (g.m): it is cached,
   not derived, so every interleaving of add/remove has to keep it in
   lockstep with the listed edges — including remove-then-re-add of the
   same node (a stale slot would double- or under-count) and removing
   the current maximum id. *)
let test_counter () =
  let g = Graph.create () in
  let m label expected =
    Alcotest.(check int) label expected (Graph.num_edges g);
    Alcotest.(check int) (label ^ " (listed)") expected (List.length (Graph.edges g));
    check_inv g label
  in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 0);
  m "triangle" 3;
  (* Removing a node drops exactly its incident edges. *)
  Graph.remove_node g 1;
  m "hub removed" 1;
  (* Re-adding the removed node must start it from degree 0: stale
     adjacency would corrupt the counter on the next add. *)
  ignore (Graph.add_edge g 1 0);
  ignore (Graph.add_edge g 1 2);
  m "re-added" 3;
  Alcotest.(check (list int)) "re-added nbrs" [ 0; 2 ] (Graph.neighbors g 1);
  (* Duplicate adds and absent removes are no-ops on the counter. *)
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.remove_edge g 0 9);
  m "no-ops" 3;
  (* Removing the maximum id frees the last-used slot. *)
  ignore (Graph.add_edge g 2 7);
  m "max added" 4;
  Graph.remove_node g 7;
  m "max removed" 3;
  (* Tear down edge by edge to zero, then rebuild. *)
  ignore (Graph.remove_edge g 0 1);
  ignore (Graph.remove_edge g 1 0) (* already gone, symmetric form *);
  ignore (Graph.remove_edge g 1 2);
  ignore (Graph.remove_edge g 0 2);
  m "torn down" 0;
  ignore (Graph.add_edge g 0 2);
  m "rebuilt" 1

let prop_random_ops =
  QCheck.Test.make ~name:"random op sequences keep invariants" ~count:60
    QCheck.(list (pair (int_bound 15) (int_bound 15)))
    (fun pairs ->
      let g = Graph.create () in
      List.iteri
        (fun i (u, v) ->
          match i mod 4 with
          | 0 | 1 -> if u <> v then ignore (Graph.add_edge g u v)
          | 2 -> ignore (Graph.remove_edge g u v)
          | _ -> Graph.remove_node g u)
        pairs;
      match Graph.check_invariants g with Ok () -> true | Error _ -> false)

let prop_edge_count =
  QCheck.Test.make ~name:"num_edges equals listed edges" ~count:60
    QCheck.(list (pair (int_bound 12) (int_bound 12)))
    (fun pairs ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g u v)) pairs;
      Graph.num_edges g = List.length (Graph.edges g))

let suite =
  [
    ( "graph",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "node add/remove" `Quick test_add_remove_nodes;
        Alcotest.test_case "edge add/remove" `Quick test_add_remove_edges;
        Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
        Alcotest.test_case "negative ids rejected" `Quick test_negative_ids_rejected;
        Alcotest.test_case "remove_node drops edges" `Quick test_remove_node_drops_edges;
        Alcotest.test_case "neighbors/degree/volume" `Quick test_neighbors_degree;
        Alcotest.test_case "edges listing" `Quick test_edges_listing;
        Alcotest.test_case "copy independence" `Quick test_copy_independent;
        Alcotest.test_case "induced subgraph" `Quick test_sub;
        Alcotest.test_case "union_into" `Quick test_union_into;
        Alcotest.test_case "of_edges isolated nodes" `Quick test_of_edges_with_isolated;
        Alcotest.test_case "edge counter micro-regression" `Quick test_counter;
        QCheck_alcotest.to_alcotest prop_random_ops;
        QCheck_alcotest.to_alcotest prop_edge_count;
      ] );
  ]
