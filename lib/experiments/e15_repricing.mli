(** E15 — fault-aware re-pricing of E7's amortized message bound: the
    same seeded deletion attack with every protocol-backed engine phase
    priced by driving the repair protocols under a fault plan /
    delivery schedule ({!Xheal_distributed.Pricing}),
    swept across loss rate x fairness F x Byzantine fraction, plus a
    defense-policy trio (off / adaptive / always-on) on one
    lossy-but-honest cell. *)

val exp : Exp.t

(** One priced cell of the sweep (or of the policy trio). *)
type row = {
  loss : float;
  fairness : int;
  byz_frac : float;
  policy : string;  (** ["static-none" | "adaptive" | "static-all"]. *)
  repairs : int;
  messages : int;
  rounds : int;
  amortized : float;  (** Messages per deletion; [0.] when [repairs = 0]. *)
  overhead : float;  (** Amortized messages over Lemma 5's lower bound. *)
  escalations : int;
  unconverged : int;
}

val rows : unit -> row list
(** The sweep cells followed by the policy-trio cells, at quick sizes —
    the rows the bench harness embeds in [BENCH_experiments.json]. *)
