(** Graph Laplacians. For a graph [G] with adjacency [A] and degree
    matrix [D], the combinatorial Laplacian is [L = D - A]; the
    symmetrically normalized Laplacian is [I - D^{-1/2} A D^{-1/2}]
    (isolated nodes contribute a zero row).

    Every operator is built from the graph's packed view
    ({!Xheal_graph.Graph.pack}): row and column [i] belong to the node
    [p_ids.(i)], and {!Xheal_graph.Graph.packed_index} maps a node back
    to its index. *)

val sparse : Xheal_graph.Graph.packed -> Sparse.t
(** Combinatorial Laplacian. *)

val dense : Xheal_graph.Graph.packed -> Dense.t

val normalized_sparse : Xheal_graph.Graph.packed -> Sparse.t
