(* Fast Byzantine smoke, behind the @byz-smoke alias (a dependency of
   the default runtest): one E14-style tolerance cell plus a defense
   ablation sanity check — undefended bridge equivocation corrupts the
   election, the full defense stack restores honest agreement, and the
   subtree quorum keeps phantoms away from the BFS root. The full
   sweep lives in E14 and test_byzantine.ml. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Fault_plan = Xheal_fault.Fault_plan
module Byzantine = Xheal_distributed.Byzantine
module Defense = Xheal_distributed.Defense
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo

let rng seed = Random.State.make [| seed |]
let parts = List.init 12 Fun.id

let election defense =
  let plan = Fault_plan.make ~seed:0x57 ~byzantine:[ (0, Fault_plan.Equivocate) ] () in
  let beliefs = Hashtbl.create 12 in
  let stats, _ =
    Election.run_robust ~rng:(rng 7) ~plan ~defense ~beliefs ~max_rounds:400 parts
  in
  if not stats.Netsim.converged then failwith "byz-smoke: election did not quiesce";
  let honest = List.filter (fun id -> id <> 0) parts in
  let hb = List.filter_map (Hashtbl.find_opt beliefs) honest in
  let agreed =
    List.length hb = List.length honest
    && (match hb with
       | b :: rest ->
         List.for_all (fun x -> x = b) rest
         && List.mem b honest
         && not (Byzantine.is_phantom b)
       | [] -> false)
  in
  (agreed, stats.Netsim.tampered)

let bfs defense =
  let graph = Gen.random_h_graph ~rng:(rng 21) 12 2 in
  let expected = List.sort Int.compare (Graph.nodes graph) in
  let plan = Fault_plan.make ~seed:0x58 ~byzantine:[ (3, Fault_plan.Equivocate) ] () in
  let stats, collected = Bfs_echo.run_robust ~plan ~defense ~max_rounds:400 ~graph ~root:0 () in
  if not stats.Netsim.converged then failwith "byz-smoke: bfs-echo did not quiesce";
  collected = Some expected

let () =
  let corrupted, tampered = election Defense.none in
  if corrupted then failwith "byz-smoke: undefended equivocation went unnoticed";
  if tampered = 0 then failwith "byz-smoke: no tampering recorded";
  let defended, _ = election Defense.all in
  if not defended then failwith "byz-smoke: defense stack failed to restore agreement";
  if bfs Defense.none then failwith "byz-smoke: phantoms should reach an undefended root";
  if not (bfs (Defense.make ~subtree_quorum:true ())) then
    failwith "byz-smoke: subtree quorum failed to filter phantoms";
  Printf.printf "byz-smoke: undefended corrupts, defended agrees (tampered=%d)\n%!" tampered;
  print_endline "byz-smoke: OK"
