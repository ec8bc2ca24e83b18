module Graph = Xheal_graph.Graph

type instance = {
  name : string;
  graph : unit -> Graph.t;
  insert : node:int -> neighbors:int list -> unit;
  delete : int -> unit;
  totals : unit -> Cost.totals;
  last_report : unit -> Cost.report option;
  check : unit -> (unit, string) result;
}

type factory = {
  label : string;
  make : rng:Random.State.t -> Graph.t -> instance;
}

let simple ~label ~on_delete =
  let make ~rng g0 =
    let g = Graph.copy g0 in
    let totals = ref Cost.zero_totals in
    let last = ref None in
    let seq = ref 0 in
    let insert ~node ~neighbors =
      if Graph.has_node g node then invalid_arg (label ^ ": inserting existing node");
      incr seq;
      Graph.add_node g node;
      List.iter
        (fun u -> if Graph.has_node g u && u <> node then ignore (Graph.add_edge g node u))
        neighbors;
      let r = Cost.empty_report ~seq:!seq Cost.Insertion in
      totals := Cost.accumulate !totals r ~black_degree:0;
      last := Some r
    in
    let delete v =
      if not (Graph.has_node g v) then invalid_arg (label ^ ": deleting missing node");
      incr seq;
      let deg = Graph.degree g v in
      let added = on_delete ~rng g v in
      let r = Cost.empty_report ~seq:!seq Cost.Case1 in
      let r = Cost.add_phase r ~label:"repair" ~rounds:(if deg > 0 then 1 else 0) ~messages:(deg + added) in
      let r = { r with edges_added = added; edges_removed = deg } in
      totals := Cost.accumulate !totals r ~black_degree:deg;
      last := Some r
    in
    {
      name = label;
      graph = (fun () -> g);
      insert;
      delete;
      totals = (fun () -> !totals);
      last_report = (fun () -> !last);
      check = (fun () -> Graph.check_invariants g);
    }
  in
  { label; make }
