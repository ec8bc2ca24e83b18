module Scope = Xheal_obs.Scope
module Tracer = Xheal_obs.Tracer

let with_span obs name run =
  match obs with
  | None -> run ()
  | Some sc ->
    let tr = sc.Scope.tracer in
    Tracer.claim_clock tr "net-virtual";
    Tracer.begin_span tr ~track:Tracer.control_track ~name ~now:0;
    let ((stats : Netsim.stats), _) as result = run () in
    Tracer.end_span tr ~track:Tracer.control_track ~now:stats.Netsim.rounds;
    result

let instant obs ~track ~name ~now =
  match obs with
  | None -> ()
  | Some sc ->
    Tracer.claim_clock sc.Scope.tracer "net-virtual";
    Tracer.instant sc.Scope.tracer ~track ~name ~now
