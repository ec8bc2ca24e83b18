(** The live network graph together with per-edge ownership.

    The paper colors each edge black (original / adversary-inserted) or
    with a cloud color, recoloring black edges that an expander wants to
    reuse. We keep the strictly more informative ownership *set* per edge
    (black flag plus a strictly ascending list of cloud ids, see
    DESIGN.md §2.1): an edge is present in the network iff it has at
    least one owner, so dissolving a cloud never silently deletes an edge
    that another cloud or the adversary still relies on. All network
    mutation goes through this module, which keeps the graph and the
    ownership table in lockstep. *)

type t

val create : unit -> t

val of_black_graph : Xheal_graph.Graph.t -> t
(** Network initialized with every edge of the given graph, black; the
    edge table is sized for that graph's edge count. *)

val graph : t -> Xheal_graph.Graph.t
(** The live network. Callers must not mutate it directly. *)

val add_node : t -> int -> unit

val add_black : t -> int -> int -> unit
(** Ensure the edge exists and is black-owned. *)

val remove_black : t -> int -> int -> unit
(** Drop black ownership; the edge disappears if no cloud owns it. *)

val add_cloud_edge : t -> cloud:int -> int -> int -> unit

val remove_cloud_edge : t -> cloud:int -> int -> int -> unit
(** Drop one cloud's ownership; the edge disappears when unowned. No-op
    if that cloud did not own the edge. *)

val remove_node : t -> int -> unit
(** Deletes the node, its edges and all their ownership records (the
    adversary's deletion primitive). *)

val is_black : t -> int -> int -> bool

val cloud_owners : t -> int -> int -> int list
(** Cloud ids owning the edge, strictly ascending ([[]] if absent or
    black-only). *)

val black_neighbors : t -> int -> int list
(** Sorted neighbours joined by a black-owned edge. *)

val black_degree : t -> int -> int

val check : t -> (unit, string) result
(** Every graph edge has at least one owner, its cloud owners are
    strictly ascending, and every ownership record points at a live
    edge. *)
