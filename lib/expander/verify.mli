(** Empirical verification of the expander guarantees the paper imports
    from Law–Siu (Theorem 3/4) — used by experiment E8 and the tests. *)

type report = {
  n : int;
  d : int;
  lambda2 : float;  (** Algebraic connectivity of the simple H-graph. *)
  sweep_expansion : float;  (** Fiedler sweep-cut upper bound on [h]. *)
  exact_expansion : float option;  (** Exact [h] when [n] is small enough. *)
  connected : bool;
  max_multiplicity : int;
}

val inspect : Hgraph.t -> report
(** Measures one H-graph; [exact_expansion] is enumerated only up to 18
    nodes. *)

val churn : rng:Random.State.t -> steps:int -> Hgraph.t -> unit
(** Applies [steps] random INSERT/DELETE operations (each an insert
    with probability 1/2; fresh node identifiers are
    allocated above the current maximum, deletions pick uniform members
    while keeping at least 3 nodes). Used to exercise Theorem 3's claim
    that updates preserve the random H-graph distribution. *)

val expansion_survives_churn :
  rng:Random.State.t -> n:int -> d:int -> steps:int -> min_lambda2:float -> bool
(** Builds a fresh H-graph, churns it, and checks the spectral gap stayed
    above the threshold — the headline Law–Siu property. *)
