module Graph = Xheal_graph.Graph
module Cuts = Xheal_graph.Cuts
module Traversal = Xheal_graph.Traversal
module Spectral = Xheal_linalg.Spectral

type report = {
  n : int;
  d : int;
  lambda2 : float;
  sweep_expansion : float;
  exact_expansion : float option;
  connected : bool;
  max_multiplicity : int;
}

(* Largest H-graph whose expansion is also enumerated exactly. *)
let exact_limit = 18

let inspect h =
  let g = Hgraph.to_graph h in
  let s = Spectral.analyze g in
  {
    n = Hgraph.size h;
    d = Hgraph.d h;
    lambda2 = s.Spectral.lambda2;
    sweep_expansion = Cuts.sweep_expansion g ~scores:s.Spectral.fiedler;
    exact_expansion =
      (if Graph.num_nodes g <= exact_limit then Some (Cuts.exact_expansion g) else None);
    connected = Traversal.is_connected g;
    max_multiplicity = Hgraph.max_multiplicity h;
  }

let churn ~rng ~steps h =
  let next_id = ref (1 + List.fold_left max 0 (Hgraph.members h)) in
  for _ = 1 to steps do
    let do_insert = Random.State.float rng 1.0 < 0.5 || Hgraph.size h <= 3 in
    if do_insert then begin
      Hgraph.insert ~rng h !next_id;
      incr next_id
    end
    else begin
      let ms = Hgraph.members h in
      let victim = List.nth ms (Random.State.int rng (List.length ms)) in
      Hgraph.delete h victim
    end
  done

let expansion_survives_churn ~rng ~n ~d ~steps ~min_lambda2 =
  let h = Hgraph.create ~rng ~d (List.init n Fun.id) in
  churn ~rng ~steps h;
  let r = inspect h in
  r.connected && r.lambda2 >= min_lambda2
