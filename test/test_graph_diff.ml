(* Differential suite for the graph store: the same random operation
   sequence is applied to Graph (the CSR store) and to Graph_hash, the
   hash adjacency-map reference model kept in test/, and after EVERY
   operation the canonical observables — sorted accessors, counts,
   degrees, the id order of [slots_by_id], mutation return values,
   self-loop rejection — must agree exactly, and Graph's own invariants
   must hold. *)

module M = Graph_hash
module G = Xheal_graph.Graph
module Edge = Xheal_graph.Edge

(* ------------------------------------------------------------------ *)
(* Canonical observable state.                                        *)

type snap = {
  nodes : int list;
  edges : (int * int) list;
  num_nodes : int;
  num_edges : int;
  min_degree : int;
  max_degree : int;
  degrees : (int * int * int list) list;  (* (node, degree, sorted neighbours) *)
  by_id : int list;  (* [slots_by_id]'s order, as node ids *)
  rank : int option list;  (* rank of each probed id in that order *)
}

(* Operations draw their ids from one id set, and the snapshots probe
   all of it, absent nodes included: absent lookups must report degree
   0, no neighbours and no rank. *)
let probe ids = Array.to_list ids

let snap_graph ~ids g =
  let n = G.num_nodes g and v = G.view g in
  let order = Array.make n 0 in
  G.slots_by_id g ~order ~tmp:(Array.make n 0) ~counts:(Array.make 256 0);
  let rank = Array.make v.G.v_used (-1) in
  Array.iteri (fun i s -> rank.(s) <- i) order;
  {
    nodes = G.nodes g;
    edges = List.map Edge.endpoints (G.edges g);
    num_nodes = n;
    num_edges = G.num_edges g;
    min_degree = G.min_degree g;
    max_degree = G.max_degree g;
    degrees = List.map (fun u -> (u, G.degree g u, G.neighbors g u)) (probe ids);
    by_id = Array.to_list (Array.map (fun s -> v.G.v_ids.(s)) order);
    rank = List.map (fun u -> match G.slot_of g u with -1 -> None | s -> Some rank.(s)) (probe ids);
  }

(* The model's side is built from its sorted accessors alone: rank =
   position in the sorted node list. *)
let snap_model ~ids m =
  let ns = M.nodes m in
  let degs = List.map (M.degree m) ns in
  let rank u =
    let rec go i = function [] -> None | v :: _ when v = u -> Some i | _ :: r -> go (i + 1) r in
    go 0 ns
  in
  {
    nodes = ns;
    edges = M.edges m;
    num_nodes = M.num_nodes m;
    num_edges = M.num_edges m;
    min_degree = List.fold_left min (if ns = [] then 0 else max_int) degs;
    max_degree = List.fold_left max 0 degs;
    degrees = List.map (fun u -> (u, M.degree m u, M.neighbors m u)) (probe ids);
    by_id = ns;
    rank = List.map rank (probe ids);
  }

let agree ~ids m g = snap_model ~ids m = snap_graph ~ids g && G.check_invariants g = Ok ()

(* ------------------------------------------------------------------ *)
(* Random operation sequences over a small id space (collisions,      *)
(* re-adds and removals of absent things all get exercised).          *)

type op =
  | Add_node of int
  | Remove_node of int
  | Add_edge of int * int
  | Remove_edge of int * int
  | Self_loop of int

let gen_ops ~rng ~ids ~steps =
  List.init steps (fun _ ->
      let id () = ids.(Random.State.int rng (Array.length ids)) in
      match Random.State.int rng 12 with
      | 0 | 1 -> Add_node (id ())
      | 2 | 3 -> Remove_node (id ())
      | 4 | 5 -> Remove_edge (id (), id ())
      | 6 -> Self_loop (id ())
      | _ -> Add_edge (id (), id ()))

let rejects_self_loop add g u =
  match add g u u with
  | (_ : bool) -> false
  | exception Invalid_argument _ -> true

(* Applies one op to both graphs; false when their behaviour diverges
   (mutation results included — add/remove return values are part of
   the contract). *)
let step m g = function
  | Add_node u ->
    M.add_node m u;
    G.add_node g u;
    true
  | Remove_node u ->
    M.remove_node m u;
    G.remove_node g u;
    true
  | Add_edge (u, v) -> u = v || M.add_edge m u v = G.add_edge g u v
  | Remove_edge (u, v) -> u = v || M.remove_edge m u v = G.remove_edge g u v
  | Self_loop u -> rejects_self_loop M.add_edge m u && rejects_self_loop G.add_edge g u

let run_diff ~seed ~ids ~steps =
  let rng = Random.State.make [| seed; 0xd1ff |] in
  let ops = gen_ops ~rng ~ids ~steps in
  let m = M.create () and g = G.create ~capacity:4 () in
  List.for_all (fun op -> step m g op && agree ~ids m g) ops

(* Dense small ids, and 14 ids spread over many radix digits of
   [Graph.slots_by_id]'s sort, up to [max_int]. *)
let small_ids = Array.init 14 Fun.id

let wide_ids =
  [|
    0; 1; 255; 256; 2047; 2048; 65_537; 1 lsl 22; (1 lsl 33) + 5; (1 lsl 44) + 9;
    (1 lsl 55) + 3; (1 lsl 61) + 1; max_int - 1; max_int;
  |]

let prop_diff =
  QCheck.Test.make ~name:"hash and CSR backends are observably identical" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      run_diff ~seed ~ids:small_ids ~steps:120 && run_diff ~seed ~ids:wide_ids ~steps:120)

(* Derived constructors must agree too: of_edges, induced subgraph,
   union_into, copy, equal. *)
let prop_derived =
  QCheck.Test.make ~name:"derived constructors agree across backends" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xdead |] in
      let pairs =
        List.init 24 (fun _ -> (Random.State.int rng 12, Random.State.int rng 12))
      in
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let extra = [ Random.State.int rng 12; Random.State.int rng 12 ] in
      let m = M.of_edges ~nodes:extra pairs and g = G.of_edges ~nodes:extra pairs in
      let keep = List.filter (fun u -> u mod 3 <> 0) (M.nodes m) in
      let ms = M.sub m keep and gs = G.sub g keep in
      let mu = M.copy m and gu = G.copy g in
      M.union_into ~dst:mu ms;
      G.union_into ~dst:gu gs;
      let ids = Array.init 12 Fun.id in
      agree ~ids m g && agree ~ids ms gs && agree ~ids mu gu
      && M.equal mu m = G.equal gu g
      && M.equal ms m = G.equal gs g
      && G.equal g g)

let suite =
  [ ("graph-diff", List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_diff; prop_derived ]) ]
