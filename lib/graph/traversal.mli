(** Graph searches and derived connectivity/distance queries. *)

(** {1 Slot-space kernels}

    BFS straight over the store's neighbour runs ({!Graph.view}), into
    slot-indexed scratch the caller owns and keeps across calls: [dist]
    and [queue] must each have at least [v_used] entries, and [dist]
    must hold [-1] at every slot on entry. Neighbours are expanded in
    ascending id order, so visit orders do not depend on the slot
    layout. Allocation-free; no pack. *)

val slot_bfs_until :
  Graph.view -> dist:int array -> queue:int array -> wanted:int array -> int -> int
(** [slot_bfs_until v ~dist ~queue ~wanted src] runs a BFS from slot
    [src] and stops once every slot of [wanted] (negative entries are
    ignored) is discovered or the component is exhausted. On return
    [dist.(w)] is the hop distance from [src] of every wanted slot [w],
    or [-1] when [src] cannot reach it. Returns the number [r] of
    discovered slots, which [queue.(0 .. r-1)] holds in visit order:
    resetting [dist] at those slots restores the all-[-1] entry state.
    With no wanted slot besides [src] no edge is scanned. *)

val slot_num_components :
  ?live:bool array -> Graph.view -> dist:int array -> queue:int array -> int
(** Connected components of the graph, one BFS per counted component.
    With [live] (indexed by slot), only the components holding at least
    one slot [s] with [live.(s)] count. Leaves [dist] at [-1]
    everywhere, as it found it; [queue] is clobbered. *)

val bfs_distances : Graph.t -> int -> (int, int) Hashtbl.t
(** [bfs_distances g s] maps every node reachable from [s] (including [s],
    at distance 0) to its hop distance from [s]. *)

val distance : Graph.t -> int -> int -> int option
(** Shortest-path hop distance, [None] if disconnected or either node is
    absent. *)

val component_of : Graph.t -> int -> int list
(** Sorted list of nodes in the connected component of the given node
    (empty if the node is absent). *)

val components : Graph.t -> int list list
(** All connected components, each sorted, ordered by smallest member. *)

val num_components : Graph.t -> int

val is_connected : Graph.t -> bool
(** True for the empty and one-node graphs. *)

val diameter : Graph.t -> int option
(** Exact diameter via all-sources BFS; [None] if disconnected or empty. *)

val articulation_points : Graph.t -> int list
(** Sorted cut vertices (Tarjan low-link), across all components. *)
