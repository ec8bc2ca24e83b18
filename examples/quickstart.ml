(* Quickstart: build a network, let an adversary attack it, let Xheal
   heal it, and inspect the Theorem-2 guarantees.

   Run with: dune exec examples/quickstart.exe *)

module Graph = Xheal_graph.Graph
module Generators = Xheal_graph.Generators
module Cost = Xheal_core.Cost
module Expansion = Xheal_metrics.Expansion
module Degree = Xheal_metrics.Degree
module Stretch = Xheal_metrics.Stretch
module Driver = Xheal_adversary.Driver
module Strategy = Xheal_adversary.Strategy

let () =
  let rng = Random.State.make [| 2024 |] in

  (* 1. An initial network: a sparse random graph of 60 processors. *)
  let initial = Generators.connected_er ~rng 60 0.08 in
  Format.printf "initial network: %a@." Graph.pp initial;

  (* 2. A healer. The driver keeps the insert-only shadow graph G' that
     the paper states its guarantees against. *)
  let driver = Driver.init (Xheal_baselines.Baselines.xheal ()) ~rng initial in

  (* 3. An omniscient adversary: churn, then a burst of hub attacks. *)
  let atk = Random.State.make [| 7 |] in
  let churn = Strategy.churn ~rng:atk ~first_id:1000 () in
  ignore (Driver.run driver churn ~steps:60);
  let hubs = Strategy.hub_delete ~rng:atk () in
  ignore (Driver.run driver hubs ~steps:15);

  (* 4. What did healing preserve? *)
  let healed = Driver.graph driver and reference = Driver.gprime driver in
  let hm = Expansion.measure healed and rm = Expansion.measure reference in
  Format.printf "after %d events (%d deletions):@." (Driver.steps driver) (Driver.deletions driver);
  Format.printf "  healed   : %a@." Expansion.pp hm;
  Format.printf "  G' (ref) : %a@." Expansion.pp rm;
  Format.printf "  expansion guarantee h(G) >= min(1, h(G')): %b@."
    (Expansion.guarantee_ok ~healed:hm ~reference:rm);

  let deg = Degree.report ~kappa:4 ~healed ~reference in
  Format.printf "  degree: max deg/deg' = %.2f, additive slack %d (limit %d), bound ok: %b@."
    deg.Degree.max_ratio deg.Degree.max_additive_slack 8 deg.Degree.bound_ok;

  let st = Stretch.report ~healed ~reference in
  Format.printf "  stretch: max %.2f over %d pairs (log2 n = %.1f)@." st.Stretch.max_stretch
    st.Stretch.pairs_checked
    (log (float_of_int (Graph.num_nodes healed)) /. log 2.0);

  let totals = (Driver.healer driver).Xheal_core.Healer.totals () in
  Format.printf "  repair cost: %.1f msgs/deletion (lower bound A(p)=%.1f), worst %d rounds@."
    (Cost.amortized_messages totals)
    (Cost.amortized_lower_bound totals)
    totals.Cost.max_rounds
