(* The benchmark/reproduction harness.

   Three scenarios, each wrapped in wall-clock timing (legal here in
   bench/ — the determinism lint only forbids it under lib/) and each
   writing a machine-readable BENCH_<name>.json next to the executable:

   - experiments: regenerates every experiment table of DESIGN.md §4
     (the paper's theorem guarantees) at full size.
   - repair: a seeded deletion attack with the observability scope
     attached — the engine runs instrumented and a pricing backend
     prices every repair by running its protocols, so the emitted JSON
     carries the per-phase message/round breakdown (E7's quantity) plus
     the full metrics dumps.
   - micro: Bechamel micro-benchmarks of the core operations whose
     asymptotics Theorem 5 talks about: H-graph splices, whole-deletion
     repairs, the eigensolvers used by the metrics, and the distributed
     protocols.

   The repair scenario also runs the scaling tier: the engine at
   n = 10^4 (and 10^5 in full mode; --huge adds a 10^6-node smoke
   cell) under seeded random deletions, each cell emitted as a
   "scaling" row — cost totals, a wall-clock budget, and the
   flamegraph-style span aggregate (Tracer.aggregate).

   Run with: dune exec bench/main.exe
   (--quick for reduced sizes, --skip-micro to omit the micro scenario,
   --huge to add the million-node scaling cell,
   --only <experiments|repair|micro> to run a single scenario — the
   @bench-smoke alias uses `--quick --only repair`.)

   BENCH_<name>.json schema ("xheal-bench/1"): { schema, name, mode,
   wall_ms, ... } — see EXPERIMENTS.md "Machine-readable bench output". *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Spectral = Xheal_linalg.Spectral
module Hgraph = Xheal_expander.Hgraph
module Xheal = Xheal_core.Xheal
module Election = Xheal_distributed.Election
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing
module Scope = Xheal_obs.Scope
module Metrics = Xheal_obs.Metrics
module Tracer = Xheal_obs.Tracer
module Jsonw = Xheal_obs.Jsonw
module Cost = Xheal_core.Cost

(* ------------------------------------------------------------------ *)
(* BENCH_<name>.json output.                                          *)

let mode_name quick = if quick then "quick" else "full"

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let write_bench ~name ~quick ~wall_ms extra =
  let json =
    Jsonw.Obj
      ([
         ("schema", Jsonw.String "xheal-bench/1");
         ("name", Jsonw.String name);
         ("mode", Jsonw.String (mode_name quick));
         ("wall_ms", Jsonw.Float wall_ms);
       ]
      @ extra)
  in
  let file = "BENCH_" ^ name ^ ".json" in
  let oc = open_out file in
  output_string oc (Jsonw.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s (wall %.1f ms)\n%!" file wall_ms

(* A sweep cell with zero repairs would make naive per-repair averages
   divide by zero; Cost guards those with an explicit 0-on-empty, and we
   additionally refuse to emit a non-finite number — "nan" would not
   even parse back as JSON. *)
let finite_num x = if Float.is_finite x then Jsonw.Float x else Jsonw.Null

(* [repair.phase.<p>.{messages,rounds,runs}] counters, regrouped as one
   JSON row per phase. *)
let phase_rows reg =
  let cs = Metrics.counters reg in
  let get name = Option.value ~default:0 (List.assoc_opt name cs) in
  List.filter_map
    (fun (name, messages) ->
      let prefix = "repair.phase." and suffix = ".messages" in
      if String.starts_with ~prefix name && String.ends_with ~suffix name then begin
        let p =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix - String.length suffix)
        in
        Some
          (Jsonw.Obj
             [
               ("phase", Jsonw.String p);
               ("messages", Jsonw.Int messages);
               ("rounds", Jsonw.Int (get (prefix ^ p ^ ".rounds")));
               ("runs", Jsonw.Int (get (prefix ^ p ^ ".runs")));
             ])
      end
      else None)
    cs

(* ------------------------------------------------------------------ *)
(* Scenario: experiment tables.                                       *)

let scenario_experiments ~quick =
  print_endline "=====================================================";
  print_endline " Xheal (PODC 2011) — experiment reproduction";
  print_endline "=====================================================";
  Printf.printf " mode: %s\n\n" (mode_name quick);
  let ok, wall_ms =
    timed (fun () -> Xheal_experiments.Registry.run_all ~quick ~out:print_string ())
  in
  Printf.printf "experiment claims: %s\n" (if ok then "ALL PASS" else "SOME FAILED");
  (* E14's fixed Byzantine scenario, one row per defense configuration:
     what each counter-measure costs in messages/words, with the
     Confirm/Vote deliveries (the defense's own traffic) broken out. *)
  let overhead_rows =
    List.map
      (fun (defense, messages, words, confirms, votes) ->
        Jsonw.Obj
          [
            ("defense", Jsonw.String defense);
            ("messages", Jsonw.Int messages);
            ("words", Jsonw.Int words);
            ("confirms", Jsonw.Int confirms);
            ("votes", Jsonw.Int votes);
          ])
      (Xheal_experiments.E14_byzantine.overhead ())
  in
  (* E15's fault-aware re-pricing sweep: the amortized message bound
     re-measured under loss x fairness x Byzantine fraction, plus the
     defense-policy trio rows (static-none / adaptive / static-all). *)
  let e15_rows =
    List.map
      (fun (r : Xheal_experiments.E15_repricing.row) ->
        Jsonw.Obj
          [
            ("loss", Jsonw.Float r.loss);
            ("fairness", Jsonw.Int r.fairness);
            ("byz", Jsonw.Float r.byz_frac);
            ("policy", Jsonw.String r.policy);
            ("repairs", Jsonw.Int r.repairs);
            ("messages", Jsonw.Int r.messages);
            ("rounds", Jsonw.Int r.rounds);
            ("amortized", finite_num r.amortized);
            ("overhead", finite_num r.overhead);
            ("escalations", Jsonw.Int r.escalations);
            ("unconverged", Jsonw.Int r.unconverged);
          ])
      (Xheal_experiments.E15_repricing.rows ())
  in
  (* E17's detector sweep: crash cells (detection latency vs bound under
     loss x fairness) and crash-free cells (false-suspicion refutation).
     Counters are deterministic ints, so the baseline pins them exactly. *)
  let e17_rows =
    List.map
      (fun (r : Xheal_experiments.E17_detector.row) ->
        Jsonw.Obj
          [
            ("loss", Jsonw.Float r.loss);
            ("fairness", Jsonw.Int r.fairness);
            ("mode", Jsonw.String (if r.crashed then "crash" else "quiet"));
            ("trials", Jsonw.Int r.trials);
            ("detected", Jsonw.Int r.detected);
            ("mean_latency", finite_num r.mean_latency);
            ("max_latency", Jsonw.Int r.max_latency);
            ("bound", Jsonw.Int r.bound);
            ("suspicions", Jsonw.Int r.suspicions);
            ("refutations", Jsonw.Int r.refutations);
            ("messages", Jsonw.Int r.messages);
          ])
      (Xheal_experiments.E17_detector.rows ())
  in
  write_bench ~name:"experiments" ~quick ~wall_ms
    [
      ("ok", Jsonw.Bool ok);
      ("byzantine_overhead", Jsonw.List overhead_rows);
      ("e15_repricing", Jsonw.List e15_rows);
      ("e17_detector", Jsonw.List e17_rows);
    ];
  print_newline ();
  ok

(* ------------------------------------------------------------------ *)
(* Scaling tier: the engine at 10^4–10^6 nodes.                       *)

(* Per-cell wall-clock ceiling, generous enough to never flake on a
   loaded machine but tight enough that a super-linear regression in
   the repair path (the CSR graph core's whole reason to exist) blows
   through it. bench_check enforces wall_ms <= budget_ms per row. The
   small full-mode cell deletes its entire graph — the endgame repairs
   on a fully-healed remnant dominate, hence its larger allowance. *)
let scaling_budget_ms n =
  if n >= 1_000_000 then 600_000. else if n > 20_000 then 300_000. else 180_000.

(* One scaling cell: seed a degree-2 H-graph backbone of [n] nodes
   (O(n) construction, connected), run [deletions] seeded random
   deletions through the observed engine, and report the cost totals
   plus the flamegraph-style span aggregate. Victims come from a
   swap-remove alive array — O(1) per pick, no per-deletion
   [Graph.nodes] materialization. *)
let scaling_cell ~n ~deletions =
  let obs = Scope.create () in
  let rng = Random.State.make [| 1009; n |] in
  let eng = Xheal.create ~obs ~rng (Gen.random_h_graph ~rng n 2) in
  let atk = Random.State.make [| 1013; n |] in
  let alive = Array.init n Fun.id in
  let live = ref n in
  let (), wall_ms =
    timed (fun () ->
        for _ = 1 to deletions do
          let i = Random.State.int atk !live in
          let v = alive.(i) in
          alive.(i) <- alive.(!live - 1);
          decr live;
          Xheal.delete eng v
        done)
  in
  let tot = Xheal.totals eng in
  let spans =
    List.map
      (fun (a : Tracer.agg) ->
        Jsonw.Obj
          [
            ("name", Jsonw.String a.Tracer.agg_name);
            ("count", Jsonw.Int a.Tracer.count);
            ("total", Jsonw.Int a.Tracer.total);
            ("self", Jsonw.Int a.Tracer.self);
          ])
      (Tracer.aggregate obs.Scope.tracer)
  in
  Printf.printf "  scaling n=%-8d deletions=%-6d wall=%9.1f ms messages=%d\n%!" n
    deletions wall_ms tot.Cost.total_messages;
  Jsonw.Obj
    [
      ("tier", Jsonw.String "scaling/1");
      ("n", Jsonw.Int n);
      ("deletions", Jsonw.Int deletions);
      ("repairs", Jsonw.Int tot.Cost.deletions);
      ("wall_ms", Jsonw.Float wall_ms);
      ("budget_ms", Jsonw.Float (scaling_budget_ms n));
      ("messages", Jsonw.Int tot.Cost.total_messages);
      ("rounds", Jsonw.Int tot.Cost.total_rounds);
      ("edges_added", Jsonw.Int tot.Cost.total_edges_added);
      ("edges_removed", Jsonw.Int tot.Cost.total_edges_removed);
      ("spans", Jsonw.List spans);
    ]

let scaling_rows ~quick ~huge =
  let cells =
    if quick then [ (10_000, 300) ] else [ (10_000, 10_000); (100_000, 10_000) ]
  in
  let cells = if huge then cells @ [ (1_000_000, 1_000) ] else cells in
  List.map (fun (n, deletions) -> scaling_cell ~n ~deletions) cells

(* ------------------------------------------------------------------ *)
(* E16: online-monitor overhead. The same seeded attack twice — once
   bare, once with the invariant observatory at cadence 1 — so the row
   carries both the wall-clock premium and a bench-level passivity
   proof: the engine's message totals must be identical either way
   (bench_check enforces it, plus checks > 0 and zero violations on
   this standard sweep). *)

let e16_monitor_row ~quick =
  let module Monitor = Xheal_obs.Monitor in
  let n = if quick then 48 else 128 in
  let deletions = if quick then 12 else 40 in
  let run with_monitor =
    let rng = Random.State.make [| 46 |] in
    let g = Gen.random_regular ~rng n 4 in
    let monitor =
      if with_monitor then
        Some
          (Monitor.create
             ~config:{ Monitor.default_config with Monitor.cadence = 1; seed = 46 }
             g)
      else None
    in
    let eng = Xheal.create ?monitor ~rng g in
    let atk = Random.State.make [| 47 |] in
    let (), wall_ms =
      timed (fun () ->
          for _ = 1 to deletions do
            let nodes = Graph.nodes (Xheal.graph eng) in
            let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
            Xheal.delete eng v
          done)
    in
    ((Xheal.totals eng).Cost.total_messages, monitor, wall_ms)
  in
  let messages_off, _, wall_off = run false in
  let messages_on, monitor, wall_on = run true in
  let monitor = Option.get monitor in
  Printf.printf
    "  e16 monitor overhead: wall %.1f -> %.1f ms, %d checks, %d events, %d violations\n%!"
    wall_off wall_on (Monitor.checks monitor) (Monitor.num_events monitor)
    (Monitor.num_violations monitor);
  Jsonw.Obj
    [
      ("n", Jsonw.Int n);
      ("deletions", Jsonw.Int deletions);
      ("messages_off", Jsonw.Int messages_off);
      ("messages_on", Jsonw.Int messages_on);
      ("wall_off_ms", Jsonw.Float wall_off);
      ("wall_on_ms", Jsonw.Float wall_on);
      ("checks", Jsonw.Int (Monitor.checks monitor));
      ("events", Jsonw.Int (Monitor.num_events monitor));
      ("violations", Jsonw.Int (Monitor.num_violations monitor));
    ]

(* ------------------------------------------------------------------ *)
(* Scenario: observed end-to-end repair.                              *)

let scenario_repair ~quick ~huge =
  print_endline "=====================================================";
  print_endline " Observed repair scenario (engine + priced protocols)";
  print_endline "=====================================================";
  (* Two scopes, two clocks: the engine traces on the cost-model round
     charges, the pricing backend's protocols on simulated virtual time
     — mixing them on one timeline would interleave incomparable
     timestamps. *)
  let engine_obs = Scope.create () in
  let net_obs = Scope.create () in
  let n = if quick then 48 else 192 in
  let deletions = if quick then 12 else 60 in
  let totals, wall_ms =
    timed (fun () ->
        let rng = Random.State.make [| 42 |] in
        let backend = Pricing.backend ~obs:net_obs ~seed:44 ~d:2 () in
        let eng = Xheal.create ~obs:engine_obs ~backend ~rng (Gen.random_regular ~rng n 4) in
        let atk = Random.State.make [| 43 |] in
        for _ = 1 to deletions do
          let nodes = Graph.nodes (Xheal.graph eng) in
          Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)))
        done;
        Xheal.totals eng)
  in
  let total = totals.Cost.total_messages and converged = totals.Cost.unconverged = 0 in
  Printf.printf " n=%d deletions=%d priced messages=%d converged=%b\n" n deletions total
    converged;
  let scaling = scaling_rows ~quick ~huge in
  let e16 = e16_monitor_row ~quick in
  write_bench ~name:"repair" ~quick ~wall_ms
    [
      ("n", Jsonw.Int n);
      ("deletions", Jsonw.Int deletions);
      ("priced_messages", Jsonw.Int total);
      ("converged", Jsonw.Bool converged);
      ("e16_monitor", e16);
      ("scaling", Jsonw.List scaling);
      ("phases", Jsonw.List (phase_rows net_obs.Scope.metrics));
      ( "metrics",
        Jsonw.Obj
          [
            ("engine", Scope.metrics_json engine_obs);
            ("net", Scope.metrics_json net_obs);
          ] );
    ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Scenario: Bechamel micro-benchmarks.                               *)

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
   The churn micro-benches keep their live nodes in such an array, as
   [scaling_cell] does, so the timed region holds the repair and not a
   walk over [Graph.nodes]. *)
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

let scenario_micro ~quick =
  print_endline "=====================================================";
  print_endline " Micro-benchmarks (Bechamel, monotonic clock)";
  print_endline "=====================================================";
  let rows, wall_ms =
    timed (fun () ->
        let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
        let instances = Instance.[ monotonic_clock ] in
        let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
        let raw = Benchmark.all cfg instances (micro_tests ()) in
        let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
        let merged = Analyze.merge ols instances results in
        let rows = ref [] in
        (* One section per measure (a single instance in practice); rows
           are sorted by name below, so hash order never reaches the
           output. *)
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
                (match est with
                | Some x -> Printf.printf "  %-32s %12.1f ns/run\n" name x
                | None -> Printf.printf "  %-32s             n/a\n" name);
                rows :=
                  Jsonw.Obj
                    [
                      ("name", Jsonw.String name);
                      ("measure", Jsonw.String measure);
                      ( "ns_per_run",
                        match est with Some x -> Jsonw.Float x | None -> Jsonw.Null );
                    ]
                  :: !rows)
              section)
          merged;
        List.rev !rows)
  in
  write_bench ~name:"micro" ~quick ~wall_ms [ ("rows", Jsonw.List rows) ];
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let huge = List.mem "--huge" args in
  let skip_micro = List.mem "--skip-micro" args in
  let rec find_only = function
    | "--only" :: v :: _ -> Some v
    | _ :: rest -> find_only rest
    | [] -> None
  in
  let only = find_only args in
  (match only with
  | Some ("experiments" | "repair" | "micro") | None -> ()
  | Some o ->
    Printf.eprintf "unknown scenario %S (expected experiments|repair|micro)\n" o;
    exit 2);
  let selected name = match only with None -> true | Some o -> String.equal o name in
  let ok = if selected "experiments" then scenario_experiments ~quick else true in
  if selected "repair" then scenario_repair ~quick ~huge;
  if selected "micro" && not skip_micro then scenario_micro ~quick;
  if not ok then exit 1
