module Graph = Xheal_graph.Graph
module Healer = Xheal_core.Healer

let neighbors_then_remove g v =
  let nbrs = Graph.neighbors g v in
  Graph.remove_node g v;
  nbrs

let count_add g u v = if Graph.add_edge g u v then 1 else 0

let no_heal =
  Healer.simple ~label:"no-heal" ~on_delete:(fun ~rng:_ g v ->
      ignore (neighbors_then_remove g v);
      0)

let line_heal =
  Healer.simple ~label:"line-heal" ~on_delete:(fun ~rng:_ g v ->
      let nbrs = neighbors_then_remove g v in
      let rec chain added = function
        | a :: (b :: _ as rest) -> chain (added + count_add g a b) rest
        | [ _ ] | [] -> added
      in
      let added = chain 0 nbrs in
      match nbrs with
      | first :: (_ :: _ :: _ as rest) ->
        (* Close the cycle for 3+ neighbours. *)
        let last = List.nth rest (List.length rest - 1) in
        added + count_add g first last
      | _ -> added)

let star_heal =
  Healer.simple ~label:"star-heal" ~on_delete:(fun ~rng:_ g v ->
      match neighbors_then_remove g v with
      | [] -> 0
      | hub :: rest -> List.fold_left (fun acc u -> acc + count_add g hub u) 0 rest)

let tree_heal =
  Healer.simple ~label:"tree-heal" ~on_delete:(fun ~rng:_ g v ->
      let nbrs = Array.of_list (neighbors_then_remove g v) in
      let added = ref 0 in
      (* Heap-shaped balanced binary tree over the neighbour array. *)
      for i = 1 to Array.length nbrs - 1 do
        added := !added + count_add g nbrs.(i) nbrs.((i - 1) / 2)
      done;
      !added)

let clique_heal =
  Healer.simple ~label:"clique-heal" ~on_delete:(fun ~rng:_ g v ->
      let nbrs = neighbors_then_remove g v in
      let added = ref 0 in
      List.iter
        (fun u -> List.iter (fun w -> if u < w then added := !added + count_add g u w) nbrs)
        nbrs;
      !added)

let xheal ?cfg () = Xheal_core.Xheal.factory ?cfg ()

let all () = [ no_heal; line_heal; star_heal; tree_heal; clique_heal; xheal () ]

let by_label label = List.find_opt (fun f -> f.Healer.label = label) (all ())
