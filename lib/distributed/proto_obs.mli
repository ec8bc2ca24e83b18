(** Shared observability glue for the protocol modules.

    All helpers are no-ops on [None], so instrumented code reads the
    same with or without a scope. Spans land on
    {!Xheal_obs.Tracer.control_track}. *)

val with_span :
  Xheal_obs.Scope.t option ->
  string ->
  (unit -> Netsim.stats * 'a) ->
  Netsim.stats * 'a
(** Wrap one protocol run in a span covering [0 .. stats.rounds] of
    virtual time (plus the tracer's current base offset). *)

val instant : Xheal_obs.Scope.t option -> track:int -> name:string -> now:int -> unit
