(** Expansion / conductance / spectral measurement of a network, with the
    strongest method available at each size: exact cut enumeration when
    feasible, Fiedler sweep cuts plus Cheeger bounds otherwise. *)

type measure = {
  n : int;
  m : int;
  connected : bool;
  lambda2 : float;
  lambda2_normalized : float;
  sweep_h : float;  (** Upper bound on edge expansion. *)
  sweep_phi : float;  (** Upper bound on conductance. *)
  exact_h : float option;  (** Exact edge expansion, small graphs only. *)
  exact_phi : float option;
}

val measure : ?rng:Random.State.t -> Xheal_graph.Graph.t -> measure
(** The exact values are enumerated (2^n subsets) only up to 16 nodes. *)

val best_h : measure -> float
(** Exact value when available, otherwise the sweep upper bound. *)

val guarantee_ok : healed:measure -> reference:measure -> bool
(** Theorem 2.3's promise, [h(G_t) ≥ min(α, h(G'_t))], with [α = 1] and
    a multiplicative slack of 0.05 for the approximation error of the
    sweep bounds. *)

val pp : Format.formatter -> measure -> unit
