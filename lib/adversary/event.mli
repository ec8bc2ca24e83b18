(** The adversary's moves (Figure 1 of the paper): one node insertion
    with chosen attachment edges, or one node deletion, per timestep. *)

type t =
  | Insert of { node : int; neighbors : int list }
  | Delete of int
