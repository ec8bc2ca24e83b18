(** Immutable sparse symmetric matrices in compressed-row form, sized for
    graph Laplacians and adjacency operators on a few thousand nodes. *)

type t

val dim : t -> int

val nnz : t -> int
(** Stored entries (both triangles counted). *)

val of_entries : int -> (int * int * float) list -> t
(** [of_entries n entries] builds an [n × n] matrix from coordinate
    triples; duplicate coordinates are summed. Entries must already be
    symmetric (the constructor does not mirror them); use
    {!of_symmetric_entries} to mirror automatically. *)

val of_sorted_rows : int -> row_ptr:int array -> col:int array -> value:float array -> t
(** [of_sorted_rows n ~row_ptr ~col ~value] wraps already-laid-out CSR
    arrays directly (no coalescing, no per-row sort) — the fast path for
    operators built straight off a packed graph view. Takes ownership of
    the arrays; the caller must not mutate them afterwards. Each row's
    columns must be strictly increasing, matching the canonical layout
    {!of_entries} produces.
    @raise Invalid_argument when the layout is malformed. *)

val of_symmetric_entries : int -> (int * int * float) list -> t
(** Like {!of_entries} but each off-diagonal triple [(i, j, v)] also
    contributes [(j, i, v)]. *)

val matvec : t -> Vec.t -> Vec.t

val to_dense : t -> Dense.t

val row_sums : t -> Vec.t

val is_symmetric : ?tol:float -> t -> bool
