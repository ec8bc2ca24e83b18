(** E17 — failure detection as the repair trigger: the heartbeat
    detector ({!Xheal_distributed.Failure_detector}) swept over loss
    rate x fairness on a fixed NoN clique (crash cells must confirm
    within the {!Xheal_fault.Detect.latency_bound}; crash-free cells
    must refute every false suspicion), plus an end-to-end oracle vs.
    detector comparison through the full engine: same seeded attack,
    identical healed graph, detection billed and monitor-certified. *)

val exp : Exp.t

(** One detector cell: [trials] seeded runs of one (loss, fairness,
    crashed?) point. Counters are summed over the trials. *)
type row = {
  loss : float;
  fairness : int;
  crashed : bool;  (** [true]: victim crashes at t=7; [false]: nobody dies. *)
  trials : int;
  detected : int;  (** Trials whose crash (if any) was confirmed. *)
  mean_latency : float;  (** Mean rebased confirmation latency; [0.] if none. *)
  max_latency : int;
  bound : int;  (** {!Xheal_fault.Detect.latency_bound} at this fairness. *)
  suspicions : int;
  refutations : int;
  messages : int;
}

val rows : unit -> row list
(** The crash cells followed by the crash-free cells, at quick sizes —
    the rows the bench harness embeds in [BENCH_experiments.json]. *)
