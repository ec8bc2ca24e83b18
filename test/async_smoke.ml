(* Fast smoke for the asynchronous engine, behind the @async-smoke
   alias (a dependency of the default runtest): a reduced-count
   conformance check of the event engine against the reference round
   loop, then a tiny E13-style fairness sweep of the Case-1 repair.
   The full-strength versions live in test_async.ml and E13. *)

module Gen = Xheal_graph.Generators
module Netsim = Xheal_distributed.Netsim
module Schedule = Xheal_fault.Schedule
module Bfs_echo = Xheal_distributed.Bfs_echo
module Pricing = Xheal_distributed.Pricing
module Cost = Xheal_core.Cost

let rng seed = Random.State.make [| seed |]

let conformance =
  QCheck.Test.make ~name:"smoke: sync event engine == reference loop" ~count:8
    QCheck.(int_range 0 999)
    (fun seed ->
      let mk () =
        let g = Gen.random_h_graph ~rng:(rng seed) (8 + (seed mod 9)) 2 in
        let net = Netsim.create () in
        let get = Bfs_echo.install net ~graph:g ~root:0 in
        (net, get)
      in
      let na, ga = mk () in
      let nb, gb = mk () in
      let a = Netsim.run ~max_rounds:2_000 na in
      let b = Netsim.run_reference ~max_rounds:2_000 nb in
      a = b && ga () = gb () && a.Netsim.converged)

let sweep () =
  List.iter
    (fun fairness ->
      let schedule = Schedule.async ~seed:fairness ~fairness in
      let s =
        Pricing.primary_build ~rng:(rng 42) ~schedule ~max_rounds:5_000 ~d:2
          ~neighbors:(List.init 12 Fun.id) ()
      in
      if not s.Cost.m_converged then
        failwith (Printf.sprintf "async-smoke: repair did not quiesce at F=%d" fairness);
      Printf.printf "async-smoke: F=%-2d time=%d messages=%d\n%!" fairness s.Cost.m_rounds
        s.Cost.m_messages)
    [ 1; 4; 16 ]

let () =
  QCheck.Test.check_exn conformance;
  sweep ();
  print_endline "async-smoke: OK"
