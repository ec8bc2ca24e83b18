(** E17 — failure detection as the repair trigger: the heartbeat
    detector ({!Xheal_distributed.Failure_detector}) swept over loss
    rate x fairness on a fixed NoN clique (crash cells must confirm
    within the {!Xheal_fault.Detect.latency_bound}; crash-free cells
    must refute every false suspicion), plus an end-to-end oracle vs.
    detector comparison through the full engine: same seeded attack,
    identical healed graph, detection billed and monitor-certified. *)

val exp : Exp.t
