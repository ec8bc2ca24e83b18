(** Edge-expansion and conductance: exact values by subset enumeration on
    small graphs, and sweep-cut upper bounds on large ones.

    Definitions follow the paper's preliminaries: for [S] with
    [|S| ≤ n/2], the edge expansion is [h(G) = min cut(S)/|S|]; the
    Cheeger constant (conductance) is
    [φ(G) = min cut(S)/min(vol S, vol S̄)]. Graphs with fewer than two
    nodes have no valid cut; those cases return [infinity]. *)

val cut_size : Graph.t -> int list -> int
(** Number of edges with exactly one endpoint in the given set. *)

val exact_expansion : ?max_nodes:int -> Graph.t -> float
(** Exact [h(G)] by enumerating all 2^n subsets.
    @raise Invalid_argument if [n] exceeds [max_nodes] (default 22). *)

val exact_conductance : ?max_nodes:int -> Graph.t -> float
(** Exact Cheeger constant by the same enumeration. *)

val exact_best_cut : ?max_nodes:int -> Graph.t -> int list * float
(** Witness set achieving [h(G)] together with its expansion value. *)

val sweep_expansion : Graph.t -> scores:(int -> float) -> float
(** Minimum expansion over all prefix cuts of the nodes sorted by
    [scores] (typically a Fiedler vector). Upper-bounds [h(G)]. *)

val sweep_conductance : Graph.t -> scores:(int -> float) -> float
(** Minimum conductance over the same sweep. Upper-bounds [φ(G)]. *)

val sweep_best_cut : Graph.t -> scores:(int -> float) -> int list * float
(** Witness prefix set achieving the sweep expansion. *)

type sweep_minima = { expansion : float; conductance : float }

val packed_sweep : Graph.packed -> order:int array -> len:int -> sweep_minima
(** Minimum expansion and minimum conductance over the prefix cuts of
    the first [len] entries of [order], in one pass. [order] holds
    distinct packed indices, typically a BFS visit order as left in the
    queue by {!Traversal.packed_bfs}. The full-set prefix is skipped.
    The minima upper-bound [h(G)] and [φ(G)]. Both are [infinity] when
    the graph has fewer than two nodes or [len <= 0]; the conductance
    is also [infinity] on an edgeless graph. A zero-volume complement
    reads as conductance 0 (disconnected graph). Allocates one byte per
    node for the membership set, and the result. *)
