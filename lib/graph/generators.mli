(** Deterministic and randomized graph families used as initial networks
    and adversarial insertion patterns.

    Randomized generators take an explicit [Random.State.t] so every
    experiment is reproducible from its seed. Nodes are [0 .. n-1]. *)

val empty : int -> Graph.t
(** [n] isolated nodes. *)

val path : int -> Graph.t
(** Path [0-1-…-(n-1)]. *)

val cycle : int -> Graph.t
(** Cycle on [n ≥ 3] nodes ([n] = 1 or 2 degrade to a point / an edge). *)

val star : int -> Graph.t
(** Star with center [0] and [n-1] leaves — the paper's Section 1
    motivating example. *)

val complete : int -> Graph.t
(** Clique [K_n]. *)

val complete_bipartite : int -> int -> Graph.t
(** [K_{a,b}]: nodes [0..a-1] on one side, [a..a+b-1] on the other. *)

val grid : int -> int -> Graph.t
(** [rows × cols] 4-neighbour mesh (wireless-mesh stand-in). *)

val hypercube : int -> Graph.t
(** [d]-dimensional hypercube on [2^d] nodes (known spectrum, used to
    validate the eigensolvers). *)

val binary_tree : int -> Graph.t
(** Complete binary tree shape on [n] nodes (heap indexing). *)

val erdos_renyi : rng:Random.State.t -> int -> float -> Graph.t
(** [G(n, p)]: each pair independently an edge with probability [p].
    @raise Invalid_argument unless [0 <= p <= 1]. *)

val random_regular : rng:Random.State.t -> int -> int -> Graph.t
(** Random [d]-regular simple graph on [n] nodes via the pairing model
    with restarts. Requires [n * d] even, [d < n].
    @raise Invalid_argument on infeasible parameters. *)

val random_h_graph : rng:Random.State.t -> int -> int -> Graph.t
(** Union of [d] independent uniform Hamilton cycles on [n ≥ 3] nodes
    (Law–Siu construction), returned as a simple graph.
    @raise Invalid_argument when [n < 3] or [d < 1]. *)

val preferential_attachment : rng:Random.State.t -> int -> int -> Graph.t
(** Barabási–Albert-style: starts from a small clique, each new node
    attaches [k] edges to endpoints sampled proportionally to degree
    (P2P-like heavy-tailed degree profile).
    @raise Invalid_argument when [n < 2] (the seed clique alone has 2
    nodes) or [k < 1] (no node would attach). *)

val connected_er : rng:Random.State.t -> int -> float -> Graph.t
(** [erdos_renyi] conditioned on connectivity: resamples until connected
    (augmenting [p] slightly after repeated failures).
    @raise Invalid_argument unless [0 < p <= 1]. *)

val margulis : int -> Graph.t
(** The Margulis/Gabber–Galil {e deterministic} expander on the vertex
    set [Z_m × Z_m] ([m² ] nodes, node [(x,y)] encoded as [x·m + y]):
    each vertex connects to [(x±2y, y)], [(x±(2y+1), y)], [(x, y±2x)]
    and [(x, y±(2x+1))] (mod [m]) — 8-regular as a multigraph, slightly
    less after removing loops/parallels. Its second eigenvalue is
    bounded away from the degree for every [m], making it the classic
    deterministic comparison point for the randomized H-graphs (the
    paper notes no {e dynamic} deterministic construction is known,
    which is why Xheal uses Law–Siu; this static family quantifies the
    gap). Requires [m ≥ 2]. *)

val relabel : offset:int -> Graph.t -> Graph.t
(** Copy with every node id shifted by [offset]. *)

val shuffle_list : rng:Random.State.t -> 'a list -> 'a list
(** Seeded Fisher–Yates shuffle (uniform over permutations), the one
    the generators use internally. Callers that need "k random victims"
    take a prefix of it rather than [List.sort] with a random
    comparator, whose behaviour is unspecified for a non-transitive
    ordering. *)
