(* C1: the clock name must be one of the two known clocks. *) module Tracer = struct let claim_clock _ (_ : string) = () end
let record tracer = Tracer.claim_clock tracer "wall-clock"
