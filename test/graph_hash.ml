(* Reference model for the differential suite (test_graph_diff.ml): a
   hash adjacency map [(int, (int, unit) Hashtbl.t) Hashtbl.t], the
   graph store's original representation. It is deliberately naive —
   O(1) expected mutation, every accessor sorted on the way out — so its
   answers are easy to trust. Hash order never leaves this file. *)

type t = { adj : (int, (int, unit) Hashtbl.t) Hashtbl.t; mutable m : int }

let create () = { adj = Hashtbl.create 16; m = 0 }

let has_node g u = Hashtbl.mem g.adj u

let add_node g u = if not (has_node g u) then Hashtbl.replace g.adj u (Hashtbl.create 4)

let num_nodes g = Hashtbl.length g.adj

let num_edges g = g.m

let nodes g = List.sort Int.compare (Hashtbl.fold (fun u _ acc -> u :: acc) g.adj [])

let neighbors g u =
  match Hashtbl.find_opt g.adj u with
  | None -> []
  | Some nb -> List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) nb [])

let degree g u = match Hashtbl.find_opt g.adj u with None -> 0 | Some nb -> Hashtbl.length nb

(* Sorted [(u, v)] pairs with [u < v]. *)
let edges g =
  List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) (neighbors g u)) (nodes g)

let add_edge g u v =
  if u = v then invalid_arg "Graph_hash.add_edge: self-loop";
  add_node g u;
  add_node g v;
  let nu = Hashtbl.find g.adj u in
  if Hashtbl.mem nu v then false
  else begin
    Hashtbl.replace nu v ();
    Hashtbl.replace (Hashtbl.find g.adj v) u ();
    g.m <- g.m + 1;
    true
  end

let remove_edge g u v =
  match Hashtbl.find_opt g.adj u with
  | Some nu when Hashtbl.mem nu v ->
    Hashtbl.remove nu v;
    Hashtbl.remove (Hashtbl.find g.adj v) u;
    g.m <- g.m - 1;
    true
  | _ -> false

let remove_node g u =
  List.iter (fun v -> ignore (remove_edge g u v)) (neighbors g u);
  Hashtbl.remove g.adj u

let of_edges ?(nodes = []) es =
  let g = create () in
  List.iter (add_node g) nodes;
  List.iter (fun (u, v) -> ignore (add_edge g u v)) es;
  g

let union_into ~dst src =
  List.iter (add_node dst) (nodes src);
  List.iter (fun (u, v) -> ignore (add_edge dst u v)) (edges src)

let copy g =
  let g' = create () in
  union_into ~dst:g' g;
  g'

let sub g ns =
  let keep = List.filter (has_node g) ns in
  of_edges ~nodes:keep (List.filter (fun (u, v) -> List.mem u keep && List.mem v keep) (edges g))

let equal a b = nodes a = nodes b && edges a = edges b
