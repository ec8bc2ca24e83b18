(** Shortest-path routing tables over a network snapshot — the substrate
    for the paper's open question "can we efficiently find new routes to
    replace the routes damaged by the deletions?" (Conclusion). Tables
    are built by one BFS per source and answer next-hop queries in O(1);
    the route-repair experiment (E11) rebuilds them after healing and
    compares the new routes to the old ones. *)

type t

val build : Xheal_graph.Graph.t -> t
(** All-pairs next-hop tables ([O(n·m)] construction). Ties are broken
    toward the smallest-id neighbour, so tables are deterministic. *)

val nodes : t -> int list

val next_hop : t -> src:int -> dst:int -> int option
(** First hop of a shortest [src → dst] route; [None] if unreachable,
    [Some src]… never: the hop is a neighbour of [src]. [dst = src]
    yields [None]. *)

val distance : t -> src:int -> dst:int -> int option

val route : t -> src:int -> dst:int -> int list option
(** Full shortest route [src; …; dst] by following next hops. *)
