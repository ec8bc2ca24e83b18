(** E14 — Byzantine tolerance sweep: election and BFS-echo under a
    growing fraction of equivocating / corrupting / silent senders, at
    bridge (trust-concentrating) vs. random placements, with each
    {!Xheal_distributed.Defense} toggle ablated separately. Reports the
    per-cell silent-corruption counts and the tolerated-fraction
    threshold per (placement, defense), then each defense's message
    premium on one fixed Byzantine scenario. *)

val exp : Exp.t
