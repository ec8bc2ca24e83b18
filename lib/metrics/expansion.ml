module Graph = Xheal_graph.Graph
module Cuts = Xheal_graph.Cuts
module Traversal = Xheal_graph.Traversal
module Spectral = Xheal_linalg.Spectral

type measure = {
  n : int;
  m : int;
  connected : bool;
  lambda2 : float;
  lambda2_normalized : float;
  sweep_h : float;
  sweep_phi : float;
  exact_h : float option;
  exact_phi : float option;
}

(* Largest graph whose cuts are also enumerated exactly (2^n subsets). *)
let exact_limit = 16

let measure g =
  let n = Graph.num_nodes g in
  let s = Spectral.analyze g in
  let small = n <= exact_limit in
  {
    n;
    m = Graph.num_edges g;
    connected = Traversal.is_connected g;
    lambda2 = s.Spectral.lambda2;
    lambda2_normalized = s.Spectral.lambda2_normalized;
    sweep_h = Cuts.sweep_expansion g ~scores:s.Spectral.fiedler;
    sweep_phi = Cuts.sweep_conductance g ~scores:s.Spectral.fiedler;
    exact_h = (if small then Some (Cuts.exact_expansion g) else None);
    exact_phi = (if small then Some (Cuts.exact_conductance g) else None);
  }

let best_h m = match m.exact_h with Some h -> h | None -> m.sweep_h

let best_phi m = match m.exact_phi with Some p -> p | None -> m.sweep_phi

(* Theorem 2.3's constant, and the slack allowed for the sweep bounds'
   approximation error. *)
let alpha = 1.0

let tol = 0.05

let guarantee_ok ~healed ~reference =
  let target = Float.min alpha (best_h reference) in
  best_h healed >= target *. (1.0 -. tol)

let pp ppf m =
  Format.fprintf ppf "n=%d m=%d h%s=%.4f phi=%.4f l2=%.4f l2n=%.4f%s" m.n m.m
    (if m.exact_h <> None then "(exact)" else "(sweep)")
    (best_h m) (best_phi m) m.lambda2 m.lambda2_normalized
    (if m.connected then "" else " DISCONNECTED")
