(** Lanczos iteration with full reorthogonalization for symmetric
    operators. Produces Ritz pairs; extreme Ritz values converge to the
    extreme eigenvalues of the operator (restricted to the orthogonal
    complement of the deflation space, if any). *)

type result = {
  ritz_values : float array;  (** Ascending. *)
  ritz_vectors : Vec.t array;  (** [ritz_vectors.(k)] pairs with [ritz_values.(k)]. *)
  steps : int;  (** Krylov dimension actually built (may stop early on breakdown). *)
}

val run :
  rng:Random.State.t ->
  ?steps:int ->
  ?orth:Vec.t list ->
  ?start:Vec.t ->
  Operator.t ->
  result
(** [run ~rng op] builds a Krylov space from a random start vector (or
    [start] when given — used by restarting). [orth] vectors are
    projected out of the start vector and of every iterate (use the
    all-ones vector to deflate a connected Laplacian's nullspace).
    [steps] defaults to [min (dim-|orth|) 120]. The small tridiagonal
    eigenproblem is solved exactly with {!Jacobi}. *)

val largest_restarted :
  rng:Random.State.t ->
  ?steps:int ->
  ?orth:Vec.t list ->
  ?restarts:int ->
  ?tol:float ->
  Operator.t ->
  float * Vec.t
(** Largest eigenpair with warm restarts: each round re-runs {!run}
    starting from the previous best Ritz vector until the estimate moves
    by less than [tol] (relative, default 1e-9) or [restarts] (default 6)
    rounds elapse. Restarting rescues convergence on tightly clustered
    spectra (e.g. long paths) where a single Krylov pass stalls. *)

val largest : result -> float * Vec.t
(** Largest Ritz pair. @raise Invalid_argument on an empty result. *)
