(** Spectral front-end: algebraic connectivity λ₂ and Fiedler vectors,
    choosing between the dense (Jacobi) and sparse (shift-negated
    Lanczos) solvers by graph size.

    Conventions: a graph with fewer than two nodes has [lambda2 = 0] and a
    zero Fiedler vector; a disconnected graph has [lambda2 = 0] and a
    component-indicator Fiedler vector (which yields a zero-cost sweep
    cut, the correct witness). *)

type t = {
  lambda2 : float;  (** Second-smallest eigenvalue of the combinatorial Laplacian. *)
  lambda2_normalized : float;  (** Same for the normalized Laplacian (Chung's λ). *)
  fiedler : int -> float;
      (** Per-node Fiedler score (combinatorial). In the [`Dense] and
          [`Lanczos] cases it reads the eigenvector by the node's rank
          among the ids the graph held when analyzed, and raises
          [Invalid_argument] on a node not among them. *)
  method_used : [ `Dense | `Lanczos | `Disconnected | `Trivial ];
}

val analyze : ?rng:Random.State.t -> Xheal_graph.Graph.t -> t
(** Full spectral summary. Graphs with at most 128 nodes use exact
    Jacobi; larger graphs use Lanczos on [σI - L] with the constant
    vector deflated. [rng] defaults to a fixed-seed state, so results
    are reproducible. *)

val lambda2 : ?rng:Random.State.t -> Xheal_graph.Graph.t -> float

val lambda2_normalized : ?rng:Random.State.t -> Xheal_graph.Graph.t -> float
