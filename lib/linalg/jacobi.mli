(** Cyclic Jacobi eigensolver for dense symmetric matrices. Robust and
    exact enough for matrices up to a few hundred rows; larger spectra go
    through {!Lanczos}. *)

type result = {
  values : float array;  (** Eigenvalues in ascending order. *)
  vectors : Dense.t;  (** Column [k] is the unit eigenvector of [values.(k)]. *)
}

val eigensystem : Dense.t -> result
(** Full eigendecomposition of a symmetric matrix. Sweeps stop once the
    off-diagonal Frobenius norm is at most [1e-12 · n · max|a_ij|], or
    after 100 sweeps.
    @raise Invalid_argument if the matrix is not symmetric. *)

val eigenvector : result -> int -> Vec.t
(** Extracts column [k] of {!field-vectors} as a vector. *)
