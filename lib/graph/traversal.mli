(** Graph searches and derived connectivity/distance queries. *)

val packed_bfs :
  Graph.packed -> dist:int array -> parent:int array -> queue:int array -> int -> int
(** One BFS over the packed CSR view from packed index [src], into
    caller-owned scratch (all of length [Array.length p.p_ids]): [dist]
    must hold [-1] at every unvisited entry; [dist]/[parent] are written
    in place and [queue] ends up holding the visit order in its first
    [r] slots, where [r] — the number of nodes reached — is returned.
    Allocation-free; the flat core behind the traversals below and the
    obs monitor's checks. *)

val packed_num_components :
  ?live:bool array -> Graph.packed -> dist:int array -> parent:int array -> queue:int array -> int
(** Connected components of the packed view, one {!packed_bfs} per
    counted component into the caller's scratch: [dist] must hold [-1]
    everywhere on entry, and the three arrays are left as those runs
    wrote them. With [live] (indexed by packed index), only the
    components holding at least one index [i] with [live.(i)] count.
    Allocation-free. *)

val bfs_distances : Graph.t -> int -> (int, int) Hashtbl.t
(** [bfs_distances g s] maps every node reachable from [s] (including [s],
    at distance 0) to its hop distance from [s]. *)

val distance : Graph.t -> int -> int -> int option
(** Shortest-path hop distance, [None] if disconnected or either node is
    absent. *)

val shortest_path : Graph.t -> int -> int -> int list option
(** One shortest path [s; …; t] (by hops), [None] if unreachable. *)

val component_of : Graph.t -> int -> int list
(** Sorted list of nodes in the connected component of the given node
    (empty if the node is absent). *)

val components : Graph.t -> int list list
(** All connected components, each sorted, ordered by smallest member. *)

val num_components : Graph.t -> int

val is_connected : Graph.t -> bool
(** True for the empty and one-node graphs. *)

val eccentricity : Graph.t -> int -> int option
(** Greatest distance from the node to any node of the graph; [None] if
    the graph is disconnected from the node's viewpoint or node absent. *)

val diameter : Graph.t -> int option
(** Exact diameter via all-sources BFS; [None] if disconnected or empty. *)

val articulation_points : Graph.t -> int list
(** Sorted cut vertices (Tarjan low-link), across all components. *)

val dfs_order : Graph.t -> int -> int list
(** Preorder of the DFS from the given node (deterministic: neighbours
    visited in increasing order). *)

val spanning_bfs_tree : Graph.t -> int -> Graph.t
(** BFS tree of the component of the root, as a graph. *)
