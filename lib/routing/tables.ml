module Graph = Xheal_graph.Graph

type entry = { hop : int; dist : int }

type t = {
  graph_nodes : int list;
  (* src -> dst -> entry *)
  table : (int, (int, entry) Hashtbl.t) Hashtbl.t;
}

(* BFS from [s], recording for every reached node its distance and the
   first hop out of [s] on one shortest path. Neighbour expansion in
   sorted order makes tie-breaking deterministic. *)
let bfs_entries g s =
  let entries = Hashtbl.create 64 in
  let q = Queue.create () in
  Hashtbl.replace entries s { hop = s; dist = 0 };
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let eu = Hashtbl.find entries u in
    List.iter
      (fun v ->
        if not (Hashtbl.mem entries v) then begin
          let hop = if u = s then v else eu.hop in
          Hashtbl.replace entries v { hop; dist = eu.dist + 1 };
          Queue.add v q
        end)
      (Graph.neighbors g u)
  done;
  Hashtbl.remove entries s;
  entries

let build g =
  let table = Hashtbl.create (Graph.num_nodes g) in
  Graph.iter_nodes (fun s -> Hashtbl.replace table s (bfs_entries g s)) g;
  { graph_nodes = Graph.nodes g; table }

let nodes t = t.graph_nodes

let entry t ~src ~dst =
  Option.bind (Hashtbl.find_opt t.table src) (fun tbl -> Hashtbl.find_opt tbl dst)

let next_hop t ~src ~dst = Option.map (fun e -> e.hop) (entry t ~src ~dst)

let distance t ~src ~dst =
  if src = dst && Hashtbl.mem t.table src then Some 0
  else Option.map (fun e -> e.dist) (entry t ~src ~dst)

let route t ~src ~dst =
  if src = dst then (if Hashtbl.mem t.table src then Some [ src ] else None)
  else
    let rec walk u acc guard =
      if guard = 0 then None
      else if u = dst then Some (List.rev (dst :: acc))
      else
        match next_hop t ~src:u ~dst with
        | None -> None
        | Some h -> walk h (u :: acc) (guard - 1)
    in
    walk src [] (List.length t.graph_nodes + 1)

