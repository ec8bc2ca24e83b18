(* C1: one binding must not claim both clocks. *) module Tracer = struct let claim_clock _ (_ : string) = () end
let record tracer =
  Tracer.claim_clock tracer "engine-rounds";
  Tracer.claim_clock tracer "net-virtual"
