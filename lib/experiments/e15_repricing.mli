(** E15 — fault-aware re-pricing of E7's amortized message bound: the
    same seeded deletion attack with every protocol-backed engine phase
    priced by driving the repair protocols under a fault plan /
    delivery schedule ({!Xheal_distributed.Pricing}),
    swept across loss rate x fairness F x Byzantine fraction, plus a
    defense-policy trio (off / adaptive / always-on) on one
    lossy-but-honest cell. *)

val exp : Exp.t
