(* C1: one clock per binding is the discipline. *) module Tracer = struct let claim_clock _ (_ : string) = () end
let record_engine tracer = Tracer.claim_clock tracer "engine-rounds"
let record_net tracer = Tracer.claim_clock tracer "net-virtual"
