(** The bundle instrumented code passes around: one metrics registry
    plus one tracer. A scope is what [Netsim], the [_robust] protocols,
    [Pricing] and the [Xheal] engine accept as [?obs]; sharing one
    scope across the phases of a composite run lays every phase out on
    one timeline and accumulates into one registry. *)

type t = { metrics : Metrics.t; tracer : Tracer.t }

val create : unit -> t

val metrics_string : t -> string
(** Byte-deterministic flat metrics dump. *)
