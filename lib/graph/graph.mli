(** Mutable, undirected, simple graphs over integer node identifiers.

    This is the shared substrate for the whole reproduction: the healed
    network [G_t], the insert-only shadow graph [G'_t], expander clouds and
    all baselines manipulate values of this type. The store is a compact
    int-array adjacency: free-list node slots, an int-keyed id -> slot
    table, and neighbour runs that hold slots sorted by neighbour id
    (DESIGN.md §4h), the layout perfbench's n = 10^5 workloads run on.

    Node identifiers are arbitrary non-negative integers and need not be
    contiguous; {!add_node} rejects negative ones. All mutating operations
    preserve the invariants: no self-loops, no parallel edges, symmetry of
    adjacency, and an exact edge count.

    Determinism contract: [nodes], [edges] and [neighbors] are sorted,
    and [iter_neighbors]/[fold_neighbors] visit in ascending order. The
    [iter_nodes]/[iter_edges]/[fold_nodes]/[fold_edges] orders follow the
    slot layout, a deterministic function of the operation history that
    a different build order of the same graph changes, so they must never
    escape into results compared across runs. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty graph. [capacity] is a size hint. *)

val copy : t -> t
(** Deep, independent copy. *)

(** {1 Nodes} *)

val has_node : t -> int -> bool

val add_node : t -> int -> unit
(** Idempotent: adding an existing node is a no-op.
    @raise Invalid_argument on a negative id. *)

val remove_node : t -> int -> unit
(** Removes the node and every incident edge. No-op if absent. *)

val num_nodes : t -> int

val nodes : t -> int list
(** Sorted list of all nodes. *)

val iter_nodes : (int -> unit) -> t -> unit
(** Slot order (see the determinism contract above). *)

val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Edges} *)

val has_edge : t -> int -> int -> bool

val add_edge : t -> int -> int -> bool
(** [add_edge g u v] ensures the edge [{u,v}] exists, implicitly adding
    missing endpoints. Returns [true] if the edge was newly created,
    [false] if it was already present.
    @raise Invalid_argument on a self-loop or a negative id, leaving the
    graph unchanged. *)

val remove_edge : t -> int -> int -> bool
(** Returns [true] iff the edge existed and was removed. *)

val num_edges : t -> int

val edges : t -> Edge.t list
(** All edges, sorted by {!Edge.compare} (deterministic). *)

val iter_edges : (Edge.t -> unit) -> t -> unit
(** Each edge visited exactly once, in slot order. *)

val fold_edges : (Edge.t -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Adjacency} *)

val degree : t -> int -> int
(** Degree of a node; [0] if the node is absent. *)

val neighbors : t -> int -> int list
(** Sorted neighbour list; [[]] if the node is absent. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Visits the neighbours in ascending order; nothing if the node is
    absent. *)

val fold_neighbors : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a
(** Folds over the neighbours in ascending order. *)

val min_degree : t -> int
(** Minimum degree over present nodes. [0] for the empty graph. *)

val max_degree : t -> int
(** Maximum degree over present nodes. [0] for the empty graph. *)

(** {1 Construction helpers} *)

val of_edges : ?nodes:int list -> (int * int) list -> t
(** Graph with the given edges (duplicates ignored) plus any extra
    isolated [nodes].
    @raise Invalid_argument on a self-loop or a negative id. *)

val sub : t -> int list -> t
(** Induced subgraph on the given node set. *)

val union_into : dst:t -> t -> unit
(** Adds every node and edge of the second graph into [dst]. *)

(** {1 Slot view}

    The store's own arrays, read in place by the slot-space kernels
    ({!Traversal.slot_pair_distance}, {!Traversal.slot_num_components},
    {!Cuts.slot_bfs_sweep}) with slot-indexed scratch the caller keeps
    across calls: a whole-graph read that copies nothing. It is the
    store's only whole-graph read path: a reader that indexes nodes by
    rank in ascending id order (Laplacians, random walks) takes that
    order from {!slots_by_id}. A slot is an
    index in [[0, v_used)]; free slots carry a negative id and degree
    0. Slot numbering depends on the operation history (see the
    determinism contract above), but each run lists its neighbours in
    ascending id order, so a BFS over the runs visits in the same order
    whatever the layout. *)

type view = private {
  v_ids : int array;  (** slot -> node id; negative when the slot is free. *)
  v_adj : int array array;
      (** slot -> neighbour slots, ascending by neighbour id; only the
          first [v_deg.(slot)] entries are live. *)
  v_deg : int array;  (** slot -> degree. *)
  v_used : int;  (** every node lives in a slot below [v_used]. *)
  v_nodes : int;  (** {!num_nodes}. *)
  v_edges : int;  (** {!num_edges}. *)
}

val view : t -> view
(** Zero-copy view of the current graph: it shares the store's arrays,
    so it is valid only until the next mutation of the graph. *)

val slot_of : t -> int -> int
(** Slot of a node, [-1] when the node is absent. *)

val slots_by_id : t -> order:int array -> tmp:int array -> counts:int array -> unit
(** Writes the live slots into [order.(0 .. num_nodes - 1)] in
    ascending id order, so [order.(r)] is the slot of the node of rank
    [r]. LSD radix sort (8-bit digits, up to the widest id) that
    ping-pongs between [order] and [tmp] and keeps its digit counts in
    [counts.(0 .. 255)]; allocates nothing.
    @raise Invalid_argument when [order] or [tmp] is shorter than
    {!num_nodes}, or [counts] shorter than 256. *)

(** {1 Comparison and display} *)

val equal : t -> t -> bool
(** Structural equality: same node set and same edge set. *)

val check_invariants : t -> (unit, string) result
(** Verifies adjacency symmetry, sorted runs, absence of self-loops,
    edge-count consistency and slot/free-list consistency, including
    that every run entry is a live slot whose id the slot table maps
    back to it. Used by the test suite. *)

val pp : Format.formatter -> t -> unit
(** Compact summary: [graph(n=…, m=…)]. *)
