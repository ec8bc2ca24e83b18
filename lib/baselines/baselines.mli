(** Repair strategies Xheal is evaluated against. Each takes the
    neighbours of the deleted node and wires them with a fixed shape;
    the shapes reproduce the comparison points of the paper's related
    work (Section 1): tree-style repairs (Forgiving Tree / Forgiving
    Graph) keep degrees low but destroy expansion; star/clique repairs
    keep distances low but blow up degrees; no repair loses connectivity.

    All are packaged as {!Xheal_core.Healer.factory} values. *)

val no_heal : Xheal_core.Healer.factory
(** Deletion with no repair at all (connectivity control). *)

val line_heal : Xheal_core.Healer.factory
(** Connects the deleted node's neighbours in a cycle (path for 2).
    Degree increase ≤ 2, but stretch and expansion degrade. *)

val star_heal : Xheal_core.Healer.factory
(** Connects every neighbour to the lowest-id neighbour. Distance-
    friendly, degree-catastrophic — the paper's star discussion. *)

val tree_heal : Xheal_core.Healer.factory
(** Balanced binary tree over the neighbours (Forgiving-Tree shape):
    constant degree increase, O(log n) stretch, but expansion collapses
    to O(1/n) on hub deletions. *)

val clique_heal : Xheal_core.Healer.factory
(** Clique over the neighbours: ideal expansion and stretch, degree
    increase Θ(deg). Upper baseline. *)

val xheal : ?cfg:Xheal_core.Config.t -> unit -> Xheal_core.Healer.factory
(** The paper's algorithm (re-export of {!Xheal_core.Xheal.factory}). *)

val all : unit -> Xheal_core.Healer.factory list
(** Every strategy above, Xheal last, default-configured. *)

val by_label : string -> Xheal_core.Healer.factory option
(** Lookup among the default-configured strategies. *)
