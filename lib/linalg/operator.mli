(** Abstract symmetric linear operators, the common currency of the
    iterative eigensolvers. *)

type t = { dim : int; apply : Vec.t -> Vec.t }

val of_sparse : Sparse.t -> t

val shifted_negated : sigma:float -> t -> t
(** [shifted_negated ~sigma a] is the operator [sigma·I - A]. Mapping the
    spectrum through [λ ↦ sigma - λ] turns the smallest eigenvalues of a
    PSD operator into the largest ones, where Krylov methods converge
    fastest. *)

val deflated : t -> Vec.t list -> t
(** Operator restricted to the orthogonal complement of the given vectors
    (inputs and outputs are projected). The vectors need not be unit. *)

val apply : t -> Vec.t -> Vec.t
