(** Degree-increase measurement (Theorem 2.1): every surviving node must
    satisfy [deg_{G_t}(x) ≤ κ·deg_{G'_t}(x) + 2κ]. *)

type report = {
  max_ratio : float;  (** Max over survivors of [deg_G / max 1 deg_G']. *)
  worst_node : int option;
  max_additive_slack : int;
      (** Max over survivors of [deg_G - κ·deg_G'] — Theorem 2.1 predicts
          this never exceeds [2κ]. *)
  bound_ok : bool;  (** All survivors within [κ·deg' + 2κ]. *)
  survivors : int;
}

val report :
  kappa:int -> healed:Xheal_graph.Graph.t -> reference:Xheal_graph.Graph.t -> report
