module Graph = Xheal_graph.Graph

type report = {
  max_ratio : float;
  worst_node : int option;
  max_additive_slack : int;
  bound_ok : bool;
  survivors : int;
}

let report ~kappa ~healed ~reference =
  let survivors = List.filter (Graph.has_node reference) (Graph.nodes healed) in
  let max_ratio = ref 0.0 and worst = ref None and slack = ref min_int and ok = ref true in
  List.iter
    (fun u ->
      let d = Graph.degree healed u and d' = Graph.degree reference u in
      let ratio = float_of_int d /. float_of_int (max 1 d') in
      if ratio > !max_ratio then begin
        max_ratio := ratio;
        worst := Some u
      end;
      let s = d - (kappa * d') in
      if s > !slack then slack := s;
      if d > (kappa * d') + (2 * kappa) then ok := false)
    survivors;
  {
    max_ratio = !max_ratio;
    worst_node = !worst;
    max_additive_slack = (if !slack = min_int then 0 else !slack);
    bound_ok = !ok;
    survivors = List.length survivors;
  }
