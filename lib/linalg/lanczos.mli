(** Lanczos iteration with full reorthogonalization for symmetric
    operators: the largest Ritz pair converges to the largest eigenpair
    of the operator (restricted to the orthogonal complement of the
    deflation space, if any). *)

val largest : rng:Random.State.t -> orth:Vec.t list -> int -> (Vec.t -> Vec.t) -> float * Vec.t
(** [largest ~rng ~orth n apply] is the largest eigenpair of the
    symmetric operator [apply] on vectors of length [n], restricted to
    the orthogonal complement of [orth] (the all-ones vector deflates a
    connected Laplacian's nullspace). Each pass builds a Krylov space of
    at most [min (n - |orth|) 120] vectors, the first from a random
    start vector, and solves the small tridiagonal problem exactly with
    {!Jacobi}; it forms only the largest Ritz vector. Up to 6 passes
    each restart from the previous pass's Ritz vector until the
    estimate moves by at most 1e-9 (relative), which rescues
    convergence on tightly clustered spectra (e.g. long paths) where a
    single pass stalls. *)
