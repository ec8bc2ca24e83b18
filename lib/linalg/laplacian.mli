(** Graph Laplacians. For a graph [G] with adjacency [A] and degree
    matrix [D], the combinatorial Laplacian is [L = D - A]; the
    symmetrically normalized Laplacian is [I - D^{-1/2} A D^{-1/2}]
    (isolated nodes contribute a zero row).

    A Laplacian reads the graph store in place ({!Xheal_graph.Graph.view})
    in ascending id order: row and column [i] belong to the node of rank
    [i], [ids.(i)]. It copies no adjacency, so it is valid only until the
    next mutation of the graph. *)

type t

val combinatorial : Xheal_graph.Graph.t -> t

val normalized : Xheal_graph.Graph.t -> t

val ids : t -> int array
(** Fresh array of the node ids by rank, ascending: [ids.(i)] owns row
    and column [i]. *)

val matvec : t -> Vec.t -> Vec.t
(** [matvec l x] is [L·x]. Each row sums its terms in column order, the
    diagonal at its sorted place among the neighbours' ranks.
    @raise Invalid_argument when [x] is not of the graph's size. *)

val dense : t -> Dense.t
