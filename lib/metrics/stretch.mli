(** Network stretch (Theorem 2.2): the worst ratio of healed-graph
    distance to [G'] distance over pairs of surviving nodes. [G']
    distances may route through deleted nodes, exactly as the paper
    defines them. *)

type report = {
  max_stretch : float;
      (** [infinity] when healing left a [G']-connected surviving pair
          disconnected; [1.0] for graphs with fewer than two nodes. *)
  worst_pair : (int * int) option;
  pairs_checked : int;
  sources_used : int;
}

val report : healed:Xheal_graph.Graph.t -> reference:Xheal_graph.Graph.t -> report
(** BFS from up to 64 surviving nodes (all of them when there are no
    more; otherwise a sample drawn from a fixed seed) in both graphs,
    maximizing the distance ratio over reachable surviving targets. *)
