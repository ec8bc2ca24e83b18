module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge

(* [clouds] is strictly ascending; most edges have no cloud owner. *)
type owners = { mutable black : bool; mutable clouds : int list }

type t = { net : Graph.t; table : owners Edge.Table.t }

let create () = { net = Graph.create (); table = Edge.Table.create 64 }

let graph t = t.net

let add_node t u = Graph.add_node t.net u

let owners_of t e =
  match Edge.Table.find_opt t.table e with
  | Some o -> o
  | None ->
    let o = { black = false; clouds = [] } in
    Edge.Table.replace t.table e o;
    o

let ensure_edge t u v =
  ignore (Graph.add_edge t.net u v);
  owners_of t (Edge.make u v)

let add_black t u v =
  let o = ensure_edge t u v in
  o.black <- true

let add_cloud_edge t ~cloud u v =
  let o = ensure_edge t u v in
  o.clouds <- List.sort_uniq Int.compare (cloud :: o.clouds)

let drop_if_unowned t e o =
  if (not o.black) && o.clouds = [] then begin
    Edge.Table.remove t.table e;
    ignore (Graph.remove_edge t.net (Edge.src e) (Edge.dst e))
  end

let remove_black t u v =
  let e = Edge.make u v in
  match Edge.Table.find_opt t.table e with
  | None -> ()
  | Some o ->
    o.black <- false;
    drop_if_unowned t e o

let remove_cloud_edge t ~cloud u v =
  let e = Edge.make u v in
  match Edge.Table.find_opt t.table e with
  | None -> ()
  | Some o ->
    o.clouds <- List.filter (fun c -> c <> cloud) o.clouds;
    drop_if_unowned t e o

let remove_node t u =
  Graph.iter_neighbors t.net u (fun v -> Edge.Table.remove t.table (Edge.make u v));
  Graph.remove_node t.net u

let is_black t u v =
  match Edge.Table.find_opt t.table (Edge.make u v) with
  | None -> false
  | Some o -> o.black

let cloud_owners t u v =
  match Edge.Table.find_opt t.table (Edge.make u v) with
  | None -> []
  | Some o -> o.clouds

let black_neighbors t u =
  List.filter (fun v -> is_black t u v) (Graph.neighbors t.net u)

let black_degree t u = List.length (black_neighbors t u)

let check t =
  let err = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !err = None then err := Some s) fmt in
  Graph.iter_edges
    (fun e ->
      match Edge.Table.find_opt t.table e with
      | None -> fail "edge %a has no ownership record" Edge.pp e
      | Some o ->
        if (not o.black) && o.clouds = [] then
          fail "edge %a has an empty ownership record" Edge.pp e;
        if not (List.equal Int.equal o.clouds (List.sort_uniq Int.compare o.clouds)) then
          fail "edge %a has unsorted or repeated cloud owners" Edge.pp e)
    t.net;
  Edge.Table.iter
    (fun e _ ->
      if not (Graph.has_edge t.net (Edge.src e) (Edge.dst e)) then
        fail "ownership record for missing edge %a" Edge.pp e)
    t.table;
  match !err with None -> Ok () | Some m -> Error m

let of_black_graph g =
  (* Built in [g]'s slot order, so the live network's slot layout
     follows the seed graph's (the slot-layout determinism tests vary
     it through the seed). *)
  let table = Edge.Table.create (Graph.num_edges g) in
  let t = { net = Graph.create ~capacity:(Graph.num_nodes g) (); table } in
  Graph.iter_nodes (fun u -> add_node t u) g;
  Graph.iter_edges (fun e -> add_black t (Edge.src e) (Edge.dst e)) g;
  t
