(* Test-side fixture builders and oracles: what the suite needs that
   the shipped system does not, so it lives here and not in lib/
   (xlint's U1 keeps it out). Each helper is written on the public API
   of the modules it serves. *)

module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Traversal = Xheal_graph.Traversal

(* ------------------------------------------------------------------ *)
(* Graph fixtures.                                                    *)

(* The graph with the given edges (duplicates ignored) plus any extra
   isolated [nodes]. Raises [Invalid_argument] on a self-loop or a
   negative id, as [Graph.add_edge] does. *)
let of_edges ?(nodes = []) es =
  let g = Graph.create () in
  List.iter (fun u -> Graph.add_node g u) nodes;
  List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) es;
  g

(* The subgraph induced on [ns]. *)
let sub g ns =
  let g' = Graph.create ~capacity:(List.length ns) () in
  List.iter (fun u -> if Graph.has_node g u then Graph.add_node g' u) ns;
  List.iter
    (fun u ->
      List.iter
        (fun v -> if u < v && Graph.has_node g' v then ignore (Graph.add_edge g' u v))
        (Graph.neighbors g u))
    ns;
  g'

(* Adds every node and edge of [src] into [dst]. *)
let union_into ~dst src =
  Graph.iter_nodes (fun u -> Graph.add_node dst u) src;
  Graph.iter_edges (fun e -> ignore (Graph.add_edge dst (Edge.src e) (Edge.dst e))) src

(* Same node set and same edge set. *)
let graph_equal g1 g2 =
  Graph.num_nodes g1 = Graph.num_nodes g2
  && Graph.num_edges g1 = Graph.num_edges g2
  && Graph.fold_nodes (fun u acc -> acc && Graph.has_node g2 u) g1 true
  && Graph.fold_edges (fun e acc -> acc && Graph.has_edge g2 (Edge.src e) (Edge.dst e)) g1 true

(* [K_{a,b}]: nodes [0..a-1] on one side, [a..a+b-1] on the other. *)
let complete_bipartite a b =
  let g = Xheal_graph.Generators.empty (a + b) in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      ignore (Graph.add_edge g u v)
    done
  done;
  g

(* The [d]-dimensional hypercube on [2^d] nodes (known spectrum). *)
let hypercube d =
  let n = 1 lsl d in
  let g = Xheal_graph.Generators.empty n in
  for u = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then ignore (Graph.add_edge g u v)
    done
  done;
  g

(* The complete binary tree shape on [n] nodes (heap indexing). *)
let binary_tree n =
  let g = Xheal_graph.Generators.empty n in
  for u = 1 to n - 1 do
    ignore (Graph.add_edge g u ((u - 1) / 2))
  done;
  g

(* A copy with every node id shifted by [offset]. *)
let relabel ~offset g =
  let g' = Graph.create ~capacity:(Graph.num_nodes g) () in
  Graph.iter_nodes (fun u -> Graph.add_node g' (u + offset)) g;
  Graph.iter_edges
    (fun e -> ignore (Graph.add_edge g' (Edge.src e + offset) (Edge.dst e + offset)))
    g;
  g'

(* ------------------------------------------------------------------ *)
(* Graph oracles.                                                     *)

(* The number of edges with exactly one endpoint in [set]. *)
let cut_size g set =
  let inside = Hashtbl.create (List.length set) in
  List.iter (fun u -> Hashtbl.replace inside u ()) set;
  Graph.fold_edges
    (fun e acc ->
      let a = Hashtbl.mem inside (Edge.src e) and b = Hashtbl.mem inside (Edge.dst e) in
      if a <> b then acc + 1 else acc)
    g 0

(* The hop distance from [s] to [t] by the Monitor's pair kernel on
   fresh scratch; [None] if they are disconnected or either is absent. *)
let distance g s t =
  let a = Graph.slot_of g s and b = Graph.slot_of g t in
  if a < 0 || b < 0 then None
  else
    let v = Graph.view g in
    let dist = Array.make v.Graph.v_used (-1) and queue = Array.make v.Graph.v_used 0 in
    match Traversal.slot_pair_distance v ~dist ~queue ~visited:(ref 0) a b with
    | -1 -> None
    | d -> Some d

(* ------------------------------------------------------------------ *)
(* Linear algebra.                                                    *)

(* Componentwise comparison of two vectors, absolute tolerance [tol]. *)
let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if Float.abs (v -. y.(i)) > tol then ok := false) x;
  !ok

(* The dense product [Ax], row by row. *)
let matvec (a : Xheal_linalg.Dense.t) x = Array.map (fun row -> Xheal_linalg.Vec.dot row x) a

(* [‖Av - lambda v‖]: how far [(lambda, v)] is from an eigenpair of [a]. *)
let residual a lambda v =
  Xheal_linalg.Vec.norm2 (Array.mapi (fun i av -> av -. (lambda *. v.(i))) (matvec a v))

(* ------------------------------------------------------------------ *)
(* Engine, adversary, routing and protocol helpers.                   *)

(* The number of black edges at [u] in the engine's network. *)
let black_degree eng u =
  let module Xheal = Xheal_core.Xheal in
  List.length (List.filter (Xheal.is_black_edge eng u) (Graph.neighbors (Xheal.graph eng) u))

(* Nodes present in both [G_t] and [G'_t], i.e. never deleted. *)
let live_nodes d =
  let module Driver = Xheal_adversary.Driver in
  List.filter (Graph.has_node (Driver.gprime d)) (Graph.nodes (Driver.graph d))

(* A strategy that replays a fixed event list. *)
let scripted events =
  let remaining = ref events in
  {
    Xheal_adversary.Strategy.name = "scripted";
    next =
      (fun _ ->
        match !remaining with
        | [] -> None
        | e :: rest ->
          remaining := rest;
          Some e);
  }

(* Ordered pairs [(s, d)], [s <> d], with a route. *)
let reachable_pairs t =
  let nodes = Xheal_routing.Tables.nodes t in
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc d ->
          if s <> d && Xheal_routing.Tables.next_hop t ~src:s ~dst:d <> None then acc + 1
          else acc)
        acc nodes)
    0 nodes

(* Every next hop of the tables is an edge of [g], and every route
   ends at its destination after as many hops as the recorded
   distance. *)
let check_tables t g =
  let module Tables = Xheal_routing.Tables in
  let nodes = Graph.nodes g in
  let bad =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            match Tables.next_hop t ~src ~dst with
            | None -> None
            | Some hop when not (Graph.has_edge g src hop) ->
              Some (Printf.sprintf "next hop %d->%d via %d is not an edge" src dst hop)
            | Some _ -> (
              match (Tables.route t ~src ~dst, Tables.distance t ~src ~dst) with
              | Some r, Some d when List.length r - 1 = d -> None
              | Some r, _ ->
                Some (Printf.sprintf "route %d->%d has length %d" src dst (List.length r - 1))
              | None, _ -> Some (Printf.sprintf "route %d->%d does not terminate" src dst)))
          nodes)
      nodes
  in
  match bad with [] -> Ok () | m :: _ -> Error m

(* A one-line rendering of a protocol message, led by its kind. *)
let pp_msg ppf (m : Xheal_distributed.Msg.t) =
  match m with
  | Challenge { rank; candidate } -> Format.fprintf ppf "challenge(rank=%d, from=%d)" rank candidate
  | Victory { leader; members } -> Format.fprintf ppf "victory(%d, |m|=%d)" leader (List.length members)
  | Explore { root; dist } -> Format.fprintf ppf "explore(root=%d, d=%d)" root dist
  | Accept -> Format.fprintf ppf "accept"
  | Reject -> Format.fprintf ppf "reject"
  | Subtree addrs -> Format.fprintf ppf "subtree(|%d|)" (List.length addrs)
  | Edges es -> Format.fprintf ppf "edges(|%d|)" (List.length es)
  | Hello -> Format.fprintf ppf "hello"
  | Ack -> Format.fprintf ppf "ack"
  | Confirm { leader; reply } ->
    Format.fprintf ppf "confirm(%d, %s)" leader (if reply then "reply" else "query")
  | Vote { claim; accept } ->
    Format.fprintf ppf "vote(%d, %s)" claim (if accept then "yes" else "ask")
  | Beat -> Format.fprintf ppf "beat"
  | Suspect { target } -> Format.fprintf ppf "suspect(%d)" target
  | Refute { target } -> Format.fprintf ppf "refute(%d)" target
