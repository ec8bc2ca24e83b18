module Graph = Xheal_graph.Graph
module Healer = Xheal_core.Healer

type t = {
  healer : Healer.instance;
  gprime : Graph.t;
  mutable steps : int;
  mutable deletions : int;
}

let init factory ~rng g0 =
  { healer = factory.Healer.make ~rng g0; gprime = Graph.copy g0; steps = 0; deletions = 0 }

let healer t = t.healer

let graph t = t.healer.Healer.graph ()

let gprime t = t.gprime

let steps t = t.steps

let deletions t = t.deletions

let apply t event =
  t.steps <- t.steps + 1;
  match event with
  | Event.Insert { node; neighbors } ->
    let live = List.filter (fun u -> Graph.has_node (graph t) u && u <> node) neighbors in
    t.healer.Healer.insert ~node ~neighbors:live;
    Graph.add_node t.gprime node;
    List.iter (fun u -> ignore (Graph.add_edge t.gprime node u)) live
  | Event.Delete v ->
    t.deletions <- t.deletions + 1;
    t.healer.Healer.delete v

let run ?(on_step = fun _ _ -> ()) t strategy ~steps =
  let applied = ref 0 in
  let continue_ = ref true in
  while !continue_ && !applied < steps do
    match strategy.Strategy.next (graph t) with
    | None -> continue_ := false
    | Some e ->
      apply t e;
      incr applied;
      on_step t e
  done;
  !applied

