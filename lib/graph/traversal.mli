(** Graph searches and derived connectivity/distance queries. *)

(** {1 Slot-space kernels}

    BFS straight over the store's neighbour runs ({!Graph.view}), into
    slot-indexed scratch the caller owns and keeps across calls: [dist]
    and [queue] must each have at least [v_used] entries, and [dist]
    must hold [-1] at every slot on entry. Neighbours are expanded in
    ascending id order, so visit orders do not depend on the slot
    layout. Allocation-free; no pack. *)

val slot_pair_distance :
  Graph.view -> dist:int array -> queue:int array -> visited:int ref -> int -> int -> int
(** [slot_pair_distance v ~dist ~queue ~visited s t] is the hop
    distance between slots [s] and [t], [0] when [s = t] and [-1] when
    they are in different components. An exact level-synchronous
    bidirectional BFS: each round expands one whole level of the side
    with the smaller frontier, and the search stops at the first edge
    between the two sides, so on an expander it labels about two balls
    of half the distance instead of one of the whole. Adds the number
    of slots it labelled to [visited]. Leaves [dist] at [-1]
    everywhere, as it found it; [queue] is clobbered. *)

val slot_num_components :
  ?live:bool array -> Graph.view -> dist:int array -> queue:int array -> visited:int ref -> int
(** Connected components of the graph, one BFS per counted component.
    With [live] (indexed by slot), only the components holding at least
    one slot [s] with [live.(s)] count. Adds the number of slots its
    searches labelled to [visited]. Leaves [dist] at [-1] everywhere,
    as it found it; [queue] is clobbered. *)

(** {1 Whole-graph queries}

    The searches below run a slot kernel on {!Graph.view} with fresh
    scratch; none packs the graph. *)

val bfs_distances : Graph.t -> int -> (int, int) Hashtbl.t
(** [bfs_distances g s] maps every node reachable from [s] (including [s],
    at distance 0) to its hop distance from [s]. *)

val components : Graph.t -> int list list
(** All connected components, each sorted, ordered by smallest member. *)

val num_components : Graph.t -> int

val is_connected : Graph.t -> bool
(** True for the empty and one-node graphs. *)

val diameter : Graph.t -> int option
(** Exact diameter via all-sources BFS; [None] if disconnected or empty. *)

val articulation_points : Graph.t -> int list
(** Sorted cut vertices (Tarjan low-link), across all components. *)
