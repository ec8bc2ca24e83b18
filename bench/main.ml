(* Bechamel micro-benchmarks of the core operations whose asymptotics
   Theorem 5 talks about: H-graph splices, whole-deletion repairs, the
   eigensolvers used by the metrics, exact expansion, routing tables
   and the distributed protocols.

   Run with: dune exec bench/main.exe
   It prints one ns/run estimate per benchmark (OLS over the monotonic
   clock) and writes no file. `xheal_cli experiments` reproduces the
   experiments, and perfbench/run.py times whole deletions. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Spectral = Xheal_linalg.Spectral
module Hgraph = Xheal_expander.Hgraph
module Xheal = Xheal_core.Xheal
module Election = Xheal_distributed.Election
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing

open Bechamel
open Toolkit

let bench_hgraph_splice () =
  let rng = Random.State.make [| 1 |] in
  let h = Hgraph.create ~rng ~d:2 (List.init 256 Fun.id) in
  let next = ref 1000 in
  Test.make ~name:"hgraph-splice(n=256,d=2)"
    (Staged.stage (fun () ->
         Hgraph.insert ~rng h !next;
         Hgraph.delete h !next;
         incr next))

(* Moves [k] distinct, uniformly drawn entries of [alive.(at ..)] to
   positions [at .. at+k-1] in O(k) (a partial Fisher–Yates shuffle).
   The churn micro-benches keep their live nodes in such an array, so
   the timed region holds the repair and not a walk over
   [Graph.nodes]. *)
let draw alive ~rng ~at k =
  for j = at to at + k - 1 do
    let i = j + Random.State.int rng (Array.length alive - j) in
    let v = alive.(i) in
    alive.(i) <- alive.(j);
    alive.(j) <- v
  done

let bench_xheal_repair name n =
  let rng = Random.State.make [| 2 |] in
  let eng = Xheal.create ~rng (Gen.random_regular ~rng n 4) in
  let next = ref (10 * n) in
  let atk = Random.State.make [| 3 |] in
  let alive = Array.init n Fun.id in
  Test.make ~name
    (Staged.stage (fun () ->
         (* Steady-state churn: one deletion (with repair) + one insertion
            keeps the network size constant across iterations; the
            newcomer takes the victim's place in [alive]. *)
         draw alive ~rng:atk ~at:0 1;
         let v = alive.(0) in
         let nbrs = List.filteri (fun i _ -> i < 3) (Graph.neighbors (Xheal.graph eng) v) in
         Xheal.delete eng v;
         let nbrs = List.filter (Graph.has_node (Xheal.graph eng)) nbrs in
         Xheal.insert eng ~node:!next ~neighbors:nbrs;
         alive.(0) <- !next;
         incr next))

let bench_lambda2_dense () =
  let g = Gen.random_regular ~rng:(Random.State.make [| 4 |]) 96 4 in
  Test.make ~name:"lambda2-dense-jacobi(n=96)" (Staged.stage (fun () -> ignore (Spectral.lambda2 g)))

let bench_lambda2_lanczos () =
  let g = Gen.random_regular ~rng:(Random.State.make [| 5 |]) 512 4 in
  Test.make ~name:"lambda2-lanczos(n=512)" (Staged.stage (fun () -> ignore (Spectral.lambda2 g)))

let bench_election () =
  let rng = Random.State.make [| 6 |] in
  let parts = List.init 64 Fun.id in
  Test.make ~name:"election-protocol(m=64)" (Staged.stage (fun () -> ignore (Election.run ~rng parts)))

let bench_faulty_election () =
  let rng = Random.State.make [| 11 |] in
  let parts = List.init 64 Fun.id in
  let plan = Fault_plan.make ~seed:7 ~drop:0.1 () in
  Test.make ~name:"election-faulty(m=64,drop=0.1)"
    (Staged.stage (fun () -> ignore (Election.run_robust ~rng ~plan ~max_rounds:400 parts)))

let bench_async_repair () =
  let rng = Random.State.make [| 12 |] in
  let neighbors = List.init 32 Fun.id in
  let schedule = Schedule.async ~seed:12 ~fairness:8 in
  Test.make ~name:"case1-repair-async(m=32,F=8)"
    (Staged.stage (fun () ->
         ignore
           (Pricing.primary_build ~rng ~schedule ~max_rounds:5_000 ~d:2 ~neighbors ())))

let bench_batch_deletion () =
  let rng = Random.State.make [| 8 |] in
  let eng = Xheal.create ~rng (Gen.random_regular ~rng 256 4) in
  let next = ref 10_000 in
  let atk = Random.State.make [| 9 |] in
  let alive = Array.init 256 Fun.id in
  Test.make ~name:"xheal-batch-step(5 victims,n=256)"
    (Staged.stage (fun () ->
         draw alive ~rng:atk ~at:0 5;
         Xheal.delete_many eng (Array.to_list (Array.sub alive 0 5));
         (* Refill to keep the size steady: each newcomer attaches to
            three distinct survivors and takes a victim's place. *)
         for k = 0 to 4 do
           draw alive ~rng:atk ~at:5 3;
           Xheal.insert eng ~node:!next ~neighbors:[ alive.(5); alive.(6); alive.(7) ];
           alive.(k) <- !next;
           incr next
         done))

let bench_routing_tables () =
  let g = Gen.random_h_graph ~rng:(Random.State.make [| 10 |]) 128 2 in
  Test.make ~name:"routing-tables-build(n=128)"
    (Staged.stage (fun () -> ignore (Xheal_routing.Tables.build g)))

let bench_exact_expansion () =
  let g = Gen.random_h_graph ~rng:(Random.State.make [| 7 |]) 14 2 in
  Test.make ~name:"exact-expansion(n=14)"
    (Staged.stage (fun () -> ignore (Xheal_graph.Cuts.exact_expansion g)))

let micro_tests () =
  Test.make_grouped ~name:"xheal"
    [
      bench_hgraph_splice ();
      bench_xheal_repair "xheal-churn-step(n=64)" 64;
      bench_xheal_repair "xheal-churn-step(n=256)" 256;
      bench_lambda2_dense ();
      bench_lambda2_lanczos ();
      bench_election ();
      bench_faulty_election ();
      bench_async_repair ();
      bench_exact_expansion ();
      bench_batch_deletion ();
      bench_routing_tables ();
    ]

let () =
  print_endline "=====================================================";
  print_endline " Micro-benchmarks (Bechamel, monotonic clock)";
  print_endline "=====================================================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  (* One section per measure (a single instance in practice); rows are
     sorted by name below, so hash order never reaches the output. *)
  (* xlint: order-independent *)
  Hashtbl.iter
    (fun measure per_test ->
      Printf.printf "\n  [%s]\n" measure;
      let section =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold
             (fun name ols_result acc ->
               let est =
                 match Analyze.OLS.estimates ols_result with
                 | Some (x :: _) -> Some x
                 | _ -> None
               in
               (name, est) :: acc)
             per_test [])
      in
      List.iter
        (fun (name, est) ->
          match est with
          | Some x -> Printf.printf "  %-32s %12.1f ns/run\n" name x
          | None -> Printf.printf "  %-32s             n/a\n" name)
        section)
    merged
