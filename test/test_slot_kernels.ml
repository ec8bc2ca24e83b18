(* Differential suite for the slot-space kernels: Graph.view,
   Graph.slots_by_id, Traversal.slot_pair_distance,
   Traversal.slot_num_components and Cuts.slot_bfs_sweep, plus the
   graph-level traversals built on them (bfs_distances, components,
   num_components, is_connected, diameter) and the test-side
   Support.distance.
   Every case
   runs on a seeded graph whose slot order differs from its id order —
   nodes added in descending id order, then churned so that freed slots
   are reused by fresh ids — and every kernel is held against a
   test-side oracle built on Graph.neighbors alone: a plain BFS over
   the sorted neighbour lists, components by repeated BFS, and prefix
   cuts recomputed from scratch with Support.cut_size. *)

module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal
module Cuts = Xheal_graph.Cuts

(* ------------------------------------------------------------------ *)
(* Graphs.                                                            *)

(* A graph on [n] nodes whose ids come from [id]: added in descending
   id order with random edges, then [n / 2] churn steps that remove a
   random node and add a fresh one (reusing the freed slot) with a few
   edges. Sparse enough that some seeds split into several components. *)
let churned_graph ~rng ~id n =
  let g = Graph.create ~capacity:2 () in
  for i = n - 1 downto 0 do
    Graph.add_node g (id i)
  done;
  let live = Array.init n Fun.id and fresh = ref n in
  let pick () = live.(Random.State.int rng n) in
  for _ = 1 to n * 3 / 2 do
    let u = pick () and v = pick () in
    if u <> v then ignore (Graph.add_edge g (id u) (id v))
  done;
  for _ = 1 to n / 2 do
    let k = Random.State.int rng n in
    Graph.remove_node g (id live.(k));
    live.(k) <- !fresh;
    incr fresh;
    Graph.add_node g (id live.(k));
    for _ = 1 to Random.State.int rng 3 do
      let v = pick () in
      if v <> live.(k) then ignore (Graph.add_edge g (id live.(k)) (id v))
    done
  done;
  g

let dense_id i = i

(* Ids spread over several radix digits of the slot sort. *)
let wide_id i = (i * 1_000_003) + (i lsl 40)

(* Whether the slot order of [g] differs from its id order. *)
let scrambled g =
  let v = Graph.view g in
  let ids = List.filter (fun u -> u >= 0) (Array.to_list v.Graph.v_ids) in
  ids <> List.sort Int.compare ids

(* ------------------------------------------------------------------ *)
(* Oracles on Graph.neighbors.                                        *)

(* BFS from [src]: the visit order as ids and the distance table. *)
let oracle_bfs g src =
  let dist = Hashtbl.create 16 in
  Hashtbl.replace dist src 0;
  let q = Queue.create () and order = ref [] in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    List.iter
      (fun v ->
        if not (Hashtbl.mem dist v) then begin
          Hashtbl.replace dist v (Hashtbl.find dist u + 1);
          Queue.add v q
        end)
      (Graph.neighbors g u)
  done;
  (List.rev !order, dist)

(* Components as node lists. *)
let oracle_components g =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc u ->
      if Hashtbl.mem seen u then acc
      else begin
        let comp, _ = oracle_bfs g u in
        List.iter (fun v -> Hashtbl.replace seen v ()) comp;
        comp :: acc
      end)
    [] (Graph.nodes g)

(* Minimum expansion and conductance over the prefix cuts of [order]
   (the full-set prefix skipped), each cut recomputed with cut_size. *)
let oracle_sweep g order =
  let n = Graph.num_nodes g and total_vol = 2 * Graph.num_edges g in
  let best_h = ref infinity and best_phi = ref infinity in
  let rec go prefix vol k = function
    | u :: rest when k + 1 < n ->
      let prefix = u :: prefix and vol = vol + Graph.degree g u and size = k + 1 in
      let cut = Support.cut_size g prefix in
      best_h := Float.min !best_h (float_of_int cut /. float_of_int (min size (n - size)));
      let denom = min vol (total_vol - vol) in
      best_phi :=
        Float.min !best_phi (if denom > 0 then float_of_int cut /. float_of_int denom else 0.0);
      go prefix vol (k + 1) rest
    | _ -> ()
  in
  go [] 0 0 order;
  (!best_h, if total_vol = 0 then infinity else !best_phi)

(* ------------------------------------------------------------------ *)
(* Kernel runs, on scratch a little longer than the slot space (the   *)
(* monitor's grows by doubling).                                      *)

let scratch v = (Array.make (v.Graph.v_used + 3) (-1), Array.make (v.Graph.v_used + 3) 0)

let all_clear dist = Array.for_all (fun d -> d = -1) dist

(* The view and the slot sort agree with the sorted accessors. *)
let view_agrees g =
  let v = Graph.view g in
  let n = Graph.num_nodes g in
  let order = Array.make n 0 and tmp = Array.make n 0 in
  Graph.slots_by_id g ~order ~tmp ~counts:(Array.make 256 0);
  v.Graph.v_nodes = n
  && v.Graph.v_edges = Graph.num_edges g
  && List.init n (fun r -> v.Graph.v_ids.(order.(r))) = Graph.nodes g
  && List.for_all
       (fun u ->
         let s = Graph.slot_of g u in
         s >= 0
         && v.Graph.v_ids.(s) = u
         && v.Graph.v_deg.(s) = Graph.degree g u
         && List.init v.Graph.v_deg.(s) (fun k -> v.Graph.v_ids.(v.Graph.v_adj.(s).(k)))
            = Graph.neighbors g u)
       (Graph.nodes g)
  && Graph.slot_of g (-7) = -1

(* Every ordered pair's distance, [s = t] included, equals the
   oracle's (-1 across components) on scratch exactly [v_used] long, so
   the two ends of the queue must not collide; [dist] reads -1 after
   every call. Each call counts at most the node count of labelled
   slots and at least what its answer needs: 1 for [s = t], d+1 for
   distance d (the sides meet along a shortest path), and for an
   unreachable pair the smaller component plus the other root (the
   search ends when one side runs dry). *)
let pair_distances_agree g =
  let v = Graph.view g in
  let dist = Array.make v.Graph.v_used (-1) and queue = Array.make v.Graph.v_used 0 in
  let visited = ref 0 in
  let size u = List.length (fst (oracle_bfs g u)) in
  List.for_all
    (fun s ->
      let _, odist = oracle_bfs g s in
      List.for_all
        (fun t ->
          let before = !visited in
          let d =
            Traversal.slot_pair_distance v ~dist ~queue ~visited (Graph.slot_of g s)
              (Graph.slot_of g t)
          in
          let labelled = !visited - before in
          let needed = if d >= 0 then d + 1 else min (size s) (size t) + 1 in
          d = Option.value ~default:(-1) (Hashtbl.find_opt odist t)
          && all_clear dist
          && (if s = t then labelled = 1 else labelled >= needed)
          && labelled <= v.Graph.v_nodes)
        (Graph.nodes g))
    (Graph.nodes g)

(* Component counts, plain and restricted to components holding a live
   slot, against the oracle's components; [dist] ends all -1. *)
let components_agree ~rng g =
  let v = Graph.view g in
  let dist, queue = scratch v in
  let live = Array.init v.Graph.v_used (fun _ -> Random.State.int rng 3 = 0) in
  let comps = oracle_components g in
  let live_comps = List.filter (List.exists (fun u -> live.(Graph.slot_of g u))) comps in
  let visited = ref 0 in
  let plain = Traversal.slot_num_components v ~dist ~queue ~visited in
  let clear_after_plain = all_clear dist and plain_visits = !visited in
  let filtered = Traversal.slot_num_components ~live v ~dist ~queue ~visited in
  plain = List.length comps
  && filtered = List.length live_comps
  && plain_visits = Graph.num_nodes g
  && !visited - plain_visits = List.length (List.concat live_comps)
  && clear_after_plain && all_clear dist

(* The fused sweep's reach and minima equal the oracle's over the
   oracle's BFS order — exactly, since both divide the same integers —
   and [~conductance:false] changes only the conductance. *)
let sweep_agrees g src =
  let v = Graph.view g in
  let visit, queue = scratch v in
  let s = Graph.slot_of g src in
  let est = Cuts.slot_bfs_sweep v ~visit ~queue ~conductance:true s in
  let clear_after = all_clear visit in
  let lean = Cuts.slot_bfs_sweep v ~visit ~queue ~conductance:false s in
  let order, _ = oracle_bfs g src in
  let h, phi = oracle_sweep g order in
  est.Cuts.reached = List.length order
  && Float.equal est.Cuts.expansion h
  && Float.equal est.Cuts.conductance phi
  && lean.Cuts.reached = est.Cuts.reached
  && Float.equal lean.Cuts.expansion h
  && Float.equal lean.Cuts.conductance infinity
  && clear_after && all_clear visit

(* The graph-level traversals against the oracles: distances and
   pairwise distances from every node, components ordered by
   their smallest member, connectivity and the diameter (the largest
   oracle distance, on a connected graph). *)
let traversals_agree g =
  let nodes = Graph.nodes g in
  (* [oracle_components] scans ascending ids, so its first visit is a
     component's smallest member, and it returns the last found first. *)
  let comps = List.rev_map (List.sort Int.compare) (oracle_components g) in
  let connected = List.length comps <= 1 in
  let bfs = List.map (fun s -> (s, oracle_bfs g s)) nodes in
  let diameter =
    List.fold_left
      (fun acc (_, (_, odist)) -> Hashtbl.fold (fun _ d acc -> Int.max d acc) odist acc)
      0 bfs
  in
  Traversal.components g = comps
  && Traversal.num_components g = List.length comps
  && Traversal.is_connected g = connected
  && Traversal.diameter g = (if connected then Some diameter else None)
  && List.for_all
       (fun (s, (_, odist)) ->
         let d = Traversal.bfs_distances g s in
         Hashtbl.length d = Hashtbl.length odist
         && Hashtbl.fold (fun u du ok -> ok && Hashtbl.find_opt d u = Some du) odist true
         && List.for_all (fun t -> Support.distance g s t = Hashtbl.find_opt odist t) nodes)
       bfs

let case ~id seed =
  let rng = Random.State.make [| seed; 0x51 |] in
  let g = churned_graph ~rng ~id (1 + Random.State.int rng 40) in
  let nodes = Array.of_list (Graph.nodes g) in
  let src () = nodes.(Random.State.int rng (Array.length nodes)) in
  Graph.check_invariants g = Ok ()
  && view_agrees g
  && pair_distances_agree g
  && components_agree ~rng g
  && traversals_agree g
  && sweep_agrees g (src ())

let prop_kernels =
  QCheck.Test.make ~name:"slot kernels match the neighbour-list oracles" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed -> case ~id:dense_id seed && case ~id:wide_id seed)

(* The generator really scrambles the slot order, so the suite does not
   pass only because slots happen to ascend with ids. *)
let test_slot_order_scrambled () =
  let scrambled_cases =
    List.length
      (List.filter
         (fun seed ->
           let rng = Random.State.make [| seed; 0x51 |] in
           scrambled (churned_graph ~rng ~id:wide_id (1 + Random.State.int rng 40)))
         (List.init 50 Fun.id))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 50 graphs have slot order != id order" scrambled_cases)
    true (scrambled_cases >= 45)

(* Hand-checked corners: a lone node, an edgeless pair, and pair
   distances on a path beside an edge: across components, to itself,
   and on exactly the labels each search needs. *)
let test_corners () =
  let g = Support.of_edges ~nodes:[ 4 ] [] in
  let v = Graph.view g in
  let visit, queue = scratch v in
  let est = Cuts.slot_bfs_sweep v ~visit ~queue ~conductance:true (Graph.slot_of g 4) in
  Alcotest.(check int) "lone node reached" 1 est.Cuts.reached;
  Alcotest.(check (float 0.)) "lone node: no cut" infinity est.Cuts.expansion;
  let g = Support.of_edges ~nodes:[ 1; 2 ] [] in
  let v = Graph.view g in
  let visit, queue = scratch v in
  let est = Cuts.slot_bfs_sweep v ~visit ~queue ~conductance:true (Graph.slot_of g 2) in
  Alcotest.(check (float 0.)) "edgeless pair: expansion 0" 0.0 est.Cuts.expansion;
  Alcotest.(check (float 0.)) "edgeless pair: no conductance" infinity est.Cuts.conductance;
  Alcotest.(check int) "two components" 2
    (Traversal.slot_num_components v ~dist:visit ~queue ~visited:(ref 0));
  let g = Support.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (5, 6) ] in
  let v = Graph.view g in
  let dist, queue = scratch v in
  let pair s t =
    let visited = ref 0 in
    let d =
      Traversal.slot_pair_distance v ~dist ~queue ~visited (Graph.slot_of g s) (Graph.slot_of g t)
    in
    Alcotest.(check bool) (Printf.sprintf "dist clear after (%d,%d)" s t) true (all_clear dist);
    (d, !visited)
  in
  Alcotest.(check (pair int int)) "s = t: 0, one slot" (0, 1) (pair 3 3);
  Alcotest.(check (pair int int)) "neighbours: both ends" (1, 2) (pair 4 3);
  (* Equal frontiers expand the source side, so along a path the
     source runs to the target: every node is labelled once. *)
  Alcotest.(check (pair int int)) "path end to end" (4, 5) (pair 0 4);
  Alcotest.(check (pair int int)) "and back" (4, 5) (pair 4 0);
  (* The search stops when either side runs dry: the edge's side, after
     its one level (2 labels), beside the path side's 1 or 3. *)
  Alcotest.(check (pair int int)) "across components" (-1, 3) (pair 5 2);
  Alcotest.(check (pair int int)) "across, the other way" (-1, 5) (pair 2 6)

(* The slot sort checks every buffer it writes before touching any. *)
let test_sort_buffers () =
  let g = Support.of_edges [ (300, 1); (1, 70_000) ] in
  let order = Array.make 3 0 and tmp = Array.make 3 0 in
  Alcotest.check_raises "short counts"
    (Invalid_argument "Graph.slots_by_id: counts shorter than 256") (fun () ->
      Graph.slots_by_id g ~order ~tmp ~counts:(Array.make 255 0));
  Alcotest.check_raises "short order"
    (Invalid_argument "Graph.slots_by_id: buffer shorter than the node count") (fun () ->
      Graph.slots_by_id g ~order:(Array.make 2 0) ~tmp ~counts:(Array.make 256 0));
  Graph.slots_by_id g ~order ~tmp ~counts:(Array.make 256 0);
  let ids = (Graph.view g).Graph.v_ids in
  Alcotest.(check (list int)) "256 counts suffice" [ 1; 300; 70_000 ]
    (List.map (fun s -> ids.(s)) (Array.to_list order))

let suite =
  [
    ( "slot-kernels",
      [
        QCheck_alcotest.to_alcotest prop_kernels;
        Alcotest.test_case "generated slot orders are scrambled" `Quick test_slot_order_scrambled;
        Alcotest.test_case "corner cases" `Quick test_corners;
        Alcotest.test_case "slot sort rejects short buffers" `Quick test_sort_buffers;
      ] );
  ]
