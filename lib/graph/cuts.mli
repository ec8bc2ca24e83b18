(** Edge-expansion and conductance: exact values by subset enumeration on
    small graphs, and sweep-cut upper bounds on large ones.

    Definitions follow the paper's preliminaries: for [S] with
    [|S| ≤ n/2], the edge expansion is [h(G) = min cut(S)/|S|]; the
    Cheeger constant (conductance) is
    [φ(G) = min cut(S)/min(vol S, vol S̄)]. Graphs with fewer than two
    nodes have no valid cut; those cases return [infinity]. *)

val exact_expansion : Graph.t -> float
(** Exact [h(G)] by enumerating all 2^n subsets.
    @raise Invalid_argument if [n] exceeds 22. *)

val exact_conductance : Graph.t -> float
(** Exact Cheeger constant by the same enumeration. *)

val sweep_expansion : Graph.t -> scores:(int -> float) -> float
(** Minimum expansion over all prefix cuts of the nodes sorted by
    [scores] (typically a Fiedler vector), ties broken by id.
    Upper-bounds [h(G)]. Each sweep calls [scores] once per node, in no
    fixed order, so it must be a pure function of the node. *)

val sweep_conductance : Graph.t -> scores:(int -> float) -> float
(** Minimum conductance over the same sweep. Upper-bounds [φ(G)]. *)

val sweep_best_cut : Graph.t -> scores:(int -> float) -> int list * float
(** Witness prefix set achieving the sweep expansion. *)

type bfs_sweep = { reached : int; expansion : float; conductance : float }

val slot_bfs_sweep :
  Graph.view -> visit:int array -> queue:int array -> conductance:bool -> int -> bfs_sweep
(** [slot_bfs_sweep v ~visit ~queue ~conductance src]: one BFS from
    slot [src] over the store's runs, with the sweep over its visit
    order fused in. [reached] is the number of nodes the BFS reached;
    [expansion] and [conductance] are the minima over the prefix cuts
    of the visit order (the full-set prefix skipped), which upper-bound
    [h(G)] and [φ(G)]. Both are [infinity] when the graph has fewer
    than two nodes; [conductance] is also [infinity] on an edgeless
    graph and when not asked for ([~conductance:false] skips its
    per-node division). A zero-volume complement reads as conductance 0
    (disconnected graph). [visit] and [queue] are slot-indexed scratch
    of at least [v_used] entries; [visit] must hold [-1] everywhere on
    entry and is left that way. Allocates only the result. *)
