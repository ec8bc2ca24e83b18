(** Engine parameters. [d] Hamilton cycles give the paper's cloud degree
    parameter [κ = 2d]; the two flags drive the ablation experiments. *)

type t = {
  d : int;  (** Hamilton cycles per H-graph; [κ = 2d]. *)
  secondary_clouds : bool;
      (** When [false], every multi-cloud repair combines immediately
          instead of building a secondary cloud (ablation A1). *)
  half_rebuild : bool;
      (** Re-randomize an H-graph cloud after it loses half its members,
          the paper's amortized re-randomization (ablation A2). *)
}

val default : t
(** [d = 2] (κ = 4), secondary clouds on, half-rebuild on. *)

val kappa : t -> int

val with_d : int -> t -> t

val validate : t -> (unit, string) result
