(** Edge congestion under shortest-path routing — the load-balance lens
    of the paper's conclusion ("can we design self-healing algorithms
    that are also load balanced?") and the operational meaning of the
    conductance bounds: a healed star whose repair is a tree funnels all
    traffic through the root, while an expander cloud spreads it. *)

type report = {
  pairs_routed : int;  (** Ordered pairs actually routed. *)
  max_load : int;  (** Busiest edge's load. *)
  mean_load : float;  (** Average over edges carrying ≥ 0 load. *)
  busiest : Xheal_graph.Edge.t option;
}

val measure : Xheal_graph.Graph.t -> report
(** Routes one unit of demand between every ordered reachable pair along
    freshly built shortest-path tables and accumulates per-edge loads. *)
