(** Dense square matrices (row-major [float array array]). Only the small
    set of operations the Jacobi eigensolver and the Laplacian need. *)

type t = float array array

val create : int -> t
(** Zero matrix of size [n × n]. *)

val init : int -> (int -> int -> float) -> t

val copy : t -> t

val dim : t -> int

val identity : int -> t

val is_symmetric : ?tol:float -> t -> bool

val frobenius_off_diagonal : t -> float
(** Square root of the sum of squared off-diagonal entries (Jacobi's
    convergence measure). *)
