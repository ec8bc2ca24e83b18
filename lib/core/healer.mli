(** The common interface every healing strategy implements — Xheal itself
    and all the baselines in [xheal_baselines]. A healer owns a live
    network graph and reacts to the adversary's two moves (Figure 1 of
    the paper): insert a node with chosen black edges, delete a node.

    Healers are packaged as records of closures so drivers can iterate
    over heterogeneous strategy lists. *)

type instance = {
  name : string;
  graph : unit -> Xheal_graph.Graph.t;
      (** The current healed network. Callers must not mutate it. *)
  insert : node:int -> neighbors:int list -> unit;
      (** Adversarial insertion. Neighbour ids not present in the network
          are ignored; healers take no repair action on insertion. *)
  delete : int -> unit;
      (** Adversarial deletion followed by this strategy's repair. *)
  totals : unit -> Cost.totals;
  last_report : unit -> Cost.report option;
  check : unit -> (unit, string) result;
      (** Internal-invariant audit (used by the property tests). *)
}

type factory = {
  label : string;
  make : rng:Random.State.t -> Xheal_graph.Graph.t -> instance;
      (** Builds a healer over a copy of the given initial network. *)
}

val simple :
  label:string ->
  on_delete:(rng:Random.State.t -> Xheal_graph.Graph.t -> int -> int) ->
  factory
(** Helper for graph-surgery baselines: [on_delete ~rng g v] must remove
    [v] from [g], perform the repair, and return the number of edges it
    added (for cost accounting; rounds are charged as 1 and messages as
    the deleted node's degree plus edges added). *)
