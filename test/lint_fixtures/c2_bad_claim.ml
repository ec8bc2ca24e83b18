(* C2: a ~now-clocked handler lives on net-virtual time; claiming the
   engine clock inside it is a cross-clock flow. *) module Tracer = struct let claim_clock _ (_ : string) = () end
let handler ~now tracer =
  let _ = now in
  Tracer.claim_clock tracer "engine-rounds"
