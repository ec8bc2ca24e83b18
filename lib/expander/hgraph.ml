module Edge = Xheal_graph.Edge
module Graph = Xheal_graph.Graph

(* Every ring holds the member set, so ring 0 answers for it. *)
type t = { d : int; mutable cycles : Hamilton.t array }

let create ~rng ~d nodes =
  if d < 1 then invalid_arg "Hgraph.create: need d >= 1";
  { d; cycles = Array.init d (fun _ -> Hamilton.random ~rng nodes) }

let d t = t.d

let kappa t = 2 * t.d

let size t = Hamilton.size t.cycles.(0)

let mem t u = Hamilton.mem t.cycles.(0) u

let members t = Hamilton.nodes t.cycles.(0)

let insert ~rng t u =
  if mem t u then invalid_arg "Hgraph.insert: already a member";
  Array.iter (fun c -> Hamilton.insert_random ~rng c u) t.cycles

let delete t u = if mem t u then Array.iter (fun c -> Hamilton.delete c u) t.cycles

let rebuild ~rng t =
  let ns = members t in
  t.cycles <- Array.init t.d (fun _ -> Hamilton.random ~rng ns)

let edge_multiset t =
  Array.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc e ->
          Edge.Map.update e (fun k -> Some (1 + Option.value ~default:0 k)) acc)
        acc (Hamilton.edges c))
    Edge.Map.empty t.cycles

let edges t = List.map fst (Edge.Map.bindings (edge_multiset t))

let to_graph t =
  let g = Graph.create () in
  List.iter (fun u -> Graph.add_node g u) (members t);
  List.iter (fun e -> ignore (Graph.add_edge g (Edge.src e) (Edge.dst e))) (edges t);
  g

let max_multiplicity t =
  Edge.Map.fold (fun _ k acc -> max k acc) (edge_multiset t) 0

let check t =
  let expect = members t in
  (* Ring 0 defines the member set; each other ring must cover it. *)
  let rec go i =
    if i >= t.d then Ok ()
    else
      match Hamilton.check t.cycles.(i) with
      | Error e -> Error (Printf.sprintf "cycle %d: %s" i e)
      | Ok () ->
        if Hamilton.nodes t.cycles.(i) <> expect then
          Error (Printf.sprintf "cycle %d covers a different node set" i)
        else go (i + 1)
  in
  go 0
