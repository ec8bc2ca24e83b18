module Gen = Xheal_graph.Generators
module Strategy = Xheal_adversary.Strategy
module Driver = Xheal_adversary.Driver

let initial ~rng = function
  | `Regular (n, d) -> Gen.random_regular ~rng n d
  | `Er (n, p) -> Gen.connected_er ~rng n p
  | `Star n -> Gen.star n
  | `Grid (r, c) -> Gen.grid r c
  | `Path n -> Gen.path n
  | `Cycle n -> Gen.cycle n
  | `Hgraph (n, d) -> Gen.random_h_graph ~rng n d
  | `PrefAttach (n, k) -> Gen.preferential_attachment ~rng n k

let mixed_attack ~rng =
  let random = Strategy.random_delete ~rng () in
  let hub = Strategy.hub_delete ~rng () in
  let cut = Strategy.cutpoint_delete ~rng () in
  {
    Strategy.name = "mixed-attack";
    next =
      (fun g ->
        let r = Random.State.float rng 1.0 in
        let s = if r < 0.5 then random else if r < 0.8 then hub else cut in
        s.Strategy.next g);
  }

let delete_fraction ~rng ~healer ~initial ~strategy ~fraction =
  let d = Driver.init healer ~rng initial in
  let n0 = Xheal_graph.Graph.num_nodes initial in
  let target = max 4 (int_of_float (float_of_int n0 *. (1.0 -. fraction))) in
  let guard = ref (20 * n0) in
  let continue_ = ref true in
  while !continue_ && Xheal_graph.Graph.num_nodes (Driver.graph d) > target && !guard > 0 do
    decr guard;
    match strategy.Strategy.next (Driver.graph d) with
    | None -> continue_ := false
    | Some e -> Driver.apply d e
  done;
  d
